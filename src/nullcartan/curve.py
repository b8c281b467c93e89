"""Curve model, family classification and pseudo-arc reparametrization.

A curve is anything with ``dimension``, ``domain`` and ``vec_jets(ts,
order)``: the vector jets (Taylor coefficients of the point and its first
``order`` derivatives) on a whole grid of parameters in one batched pass.
That is the only contract the library relies on; its points are
``vec_jets(ts, 0).value``.  Every curve class here and in ``constructions``
serves it through :class:`_BatchedCurve`, whose ``vec_jets`` refuses a
negative order, and a parameter outside ``domain`` or a NaN, before the
class's own ``_vec_jets`` runs; it is the one place a curve parameter is
checked.  The single-point ``vec_jet(t, order)``, ``point(t)`` and
``derivatives(t, m)`` are written once, in :class:`_BatchedCurve`: the same
evaluation on the one-point grid [t].  ``classify`` checks membership in the
nullity-sequence family {0,1,2,2,1,0,...,0} on a grid, and
``pseudo_arc_reparam`` normalizes the parameter so the third derivative has
unit self-product.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ClassificationError,
    DegenerateBasisError,
    DimensionMismatchError,
    ExprEvaluationError,
    FamilyError,
    HypothesisError,
    InputError,
    NullCartanError,
    require,
)
from .expr import (
    Expr,
    Jet,
    Program,
    VecJet,
    _shift_jets,
    _shift_table,
    jet_compose,
    jet_eval,
    jet_invert,
    parse,
)
from .metric import PseudoMetric, family_nullity_sequence

__all__ = [
    "Curve",
    "SampledCurve",
    "SplineCurve",
    "ReparametrizedCurve",
    "ArcLengthCurve",
    "MappedCurve",
    "ClassificationReport",
    "classify",
    "require_family",
    "pseudo_arc_reparam",
    "chebyshev_grid",
    "pointwise_order",
]

# deepest derivative order the single-point derivatives() serves
JET_BUDGET = 8
# highest degree of a polynomial Curve that is folded into one Taylor-shift
# table.  The fold works in the monomial basis of x = (t - c)/r, centered and
# scaled to [-1, 1] over the domain, where rounding grows with the degree: a
# degree-8 Chebyshev polynomial written as the product of its factors was the
# worst case found, 3.3e-13 relative to each component's largest value at
# each order (1.4e-14 at degree 5)
FOLD_DEGREE = 8
DEFAULT_CLASSIFY_POINTS = 17
# grid points per batched pass when a table is built; bounds the size of the
# intermediate jets, not the result
TABLE_BLOCK = 256
# table cells per Gauss-Kronrod panel of a CumulativeIntegral.  A 512-cell
# table is 16 panels, 240 integrand values; on the evolute's arc length and
# the pseudo-arc rate of a warped quintic it is at the roundoff floor, below
# the error of the 1025-value composite Simpson table it replaced
PANEL_CELLS = 32


def chebyshev_grid(a, b, m):
    """m Chebyshev-distributed points in (a, b), ascending."""
    k = np.arange(m)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * (2 * k + 1) / (2 * m))
    return np.sort(nodes)


def _check_interval(domain):
    if not -math.inf < domain[0] < domain[1] < math.inf:
        raise InputError("domain must be a finite interval [a, b] with a < b")


def _check_in_domain(t, domain):
    """Raise InputError for the first parameter (of a float or array) outside."""
    a, b = domain
    slack = 1e-12 * (1.0 + abs(a) + abs(b))
    ts = np.atleast_1d(t)
    require((a - slack <= ts) & (ts <= b + slack), lambda j: InputError(
        f"parameter {float(ts[j])} outside domain [{a}, {b}]"))


def _derivative_rows(vj, n):
    """alpha', ..., alpha^(n) off a batched jet of order >= n, shape (m, n, dim),
    and their norms (m, n).  An infinite norm, a derivative that overflows
    floating point, is a numerical failure at the first t with one; a NaN is
    left to the gates that read the rows."""
    factorials = np.array([math.factorial(k) for k in range(1, n + 1)], dtype=float)
    derivs = (vj.coeffs[1:n + 1] * factorials[:, None, None]).swapaxes(0, 1).copy()
    norms = np.linalg.norm(derivs, axis=-1)
    overflow = np.isinf(norms)
    require(~overflow.any(axis=1), lambda j: DegenerateBasisError(
        f"|alpha^({int(overflow[j].argmax()) + 1})| overflows at t={vj.base[j]}: "
        "the derivative system is too large for floating point"))
    return derivs, norms


# what a pointwise evaluation raises for a point: library errors plus the
# arithmetic and domain errors of jet operations
_POINT_ERRORS = (NullCartanError, ArithmeticError, ValueError)


def _bisect_first_failure(fn, ts):
    lo, hi = 0, len(ts)  # fn(ts[:hi]) fails; fn(ts[:lo]) is empty
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            fn(ts[:mid])
        except _POINT_ERRORS:
            hi = mid
        else:
            lo = mid
    fn(ts[hi - 1:hi])


def pointwise_order(fn, ts, block=None):
    """``fn(ts)`` for a batched grid function, with pointwise error semantics.

    On success this is one call (or one per block of at most ``block``
    points, results concatenated along axis 0).  When the batch fails, the
    error raised is the one a loop over ``ts`` in order would meet first:
    the shortest failing prefix is found by bisection and its last point is
    rerun alone, so the type, message and location are those of that point.
    An empty grid is an InputError.
    """
    ts = np.asarray(ts, dtype=float)
    if not ts.size:
        raise InputError("the parameter grid is empty")
    if block is not None and len(ts) > block:
        parts = np.array_split(ts, -(-len(ts) // block))
        return np.concatenate([pointwise_order(fn, part) for part in parts])
    try:
        return fn(ts)
    except _POINT_ERRORS:
        if len(ts) > 1:
            _bisect_first_failure(fn, ts)
        raise


class _BatchedCurve:
    """The curve protocol's one checked entry, ``vec_jets``, and the
    single-point surface served from it.

    ``vec_jets`` refuses a negative order, and a parameter outside ``domain``
    or a NaN, with InputError, then hands a float grid to the class's own
    ``_vec_jets``.  Each single-point query is the batched evaluation on a
    one-point grid.  :meth:`derivatives` serves orders up to ``JET_BUDGET``;
    consumers that need deeper jets use ``vec_jets``."""

    def vec_jets(self, ts, order):
        if order < 0:
            raise InputError(f"jet order {order} is negative")
        ts = np.asarray(ts, dtype=float)
        _check_in_domain(ts, self.domain)
        return self._vec_jets(ts, order)

    def vec_jet(self, t, order):
        return self.vec_jets(np.array([float(t)]), order).at(0)

    def point(self, t):
        return self.vec_jet(t, 0).value

    def derivatives(self, t, m):
        """The derivatives of orders 1..m at t."""
        if m > JET_BUDGET:
            raise InputError(f"derivative order {m} exceeds jet budget {JET_BUDGET}")
        vj = self.vec_jet(t, m)
        return [vj.derivative_value(k) for k in range(1, m + 1)]


@dataclass(frozen=True, eq=False)
class Curve(_BatchedCurve):
    """Symbolic curve: n component expressions over one parameter.

    The components are compiled once into one :class:`Program`.  When they
    are polynomials of degree at most ``FOLD_DEGREE`` (no division by a
    series, negative power or function call after constant folding), their
    jets on any grid are one Taylor shift of a coefficient block folded once
    per curve; every other curve runs the program on each grid.  The degree
    is capped because rounding in the shifted monomial basis grows with it.
    """

    dimension: int
    components: tuple[Expr, ...]
    parameter: str = "s"
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.dimension < 4:
            raise DimensionMismatchError("curves need dimension >= 4")
        if len(self.components) != self.dimension:
            raise DimensionMismatchError(
                f"{len(self.components)} components for dimension {self.dimension}")
        _check_interval(self.domain)

    @classmethod
    def from_strings(cls, components, parameter="s", domain=(0.0, 1.0)):
        exprs = tuple(parse(text, parameter) for text in components)
        return cls(len(exprs), exprs, parameter, tuple(domain))

    @cached_property
    def _program(self):
        return Program(self.components)

    @cached_property
    def _fold(self):
        """``(c, r, table)`` for components that are polynomials of degree at
        most FOLD_DEGREE: the Taylor-shift table of their coefficient block
        in x = (t - c)/r, c the midpoint and r the half-width of the domain,
        from one run of the program on the series [c, r, 0, ...].  None
        leaves every grid to the interpreter: the program is not such a
        polynomial, that run raises, or the table overflows or is not
        finite, so evaluation errors and non-finite jets stay the
        interpreter's own."""
        degree = self._program.degree
        if degree is None or degree > FOLD_DEGREE:
            return None
        a, b = self.domain
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        param = np.zeros(degree + 1)
        param[0] = c
        param[1:2] = r
        try:
            with np.errstate(all="ignore"):
                table = _shift_table(np.stack(self._program.run(param), axis=-1), r)
        except (ExprEvaluationError, OverflowError):
            return None
        return (c, r, table) if np.isfinite(table).all() else None

    def _vec_jets(self, ts, order):
        """Vector jets on a grid, from the fold when there is one; an
        evaluation error, or a component whose jet is not finite, names its
        component."""
        try:
            if self._fold is None:
                coeffs = np.stack(self._program.run(Jet.variable(ts, order).coeffs), axis=-1)
            else:
                c, r, table = self._fold
                coeffs = _shift_jets(table, (ts - c) / r, order)
        except ExprEvaluationError as exc:
            raise ExprEvaluationError(
                f"component {exc.output}: {exc.reason}", exc.subexpression) from None
        bad = ~np.isfinite(coeffs)
        if bad.any():
            i = int(np.argmax(bad.reshape(-1, self.dimension).any(axis=0)))
            at = np.atleast_1d(ts)[np.argmax(np.atleast_1d(bad[..., i].any(axis=0)))]
            raise ExprEvaluationError(
                f"component {i}: non-finite jet at {self.parameter}={at}",
                str(self.components[i]))
        return VecJet(ts, coeffs)

    # bound in the class body too: bench/spans.py wraps Curve.vec_jet there
    vec_jet = _BatchedCurve.vec_jet

    def precompose(self, inner, parameter="u", domain=None):
        """The curve u -> alpha(phi(u)) for a reparametrizing expression phi,
        on ``domain`` (default: this curve's).  It is a :class:`MappedCurve`,
        so its jets are this curve's composed with phi's, and it refuses a
        map that leaves this curve's domain."""
        return MappedCurve(self, inner, domain or self.domain, parameter)


def _read_only(values):
    """A read-only float copy of ``values``."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Finite curve samples on a strictly increasing parameter grid, held as
    read-only copies, so the validated grid cannot change afterwards."""

    grid: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        grid = _read_only(self.grid)
        points = _read_only(self.points)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "points", points)
        if grid.ndim != 1 or points.ndim != 2 or len(grid) != len(points):
            raise InputError("grid and points must have matching lengths")
        require(np.isfinite(grid) & np.isfinite(points).all(axis=1), lambda j: InputError(
            f"sample {j} at t={grid[j]} is not finite: {points[j]}"))
        require(np.diff(grid) > 0, lambda j: InputError("grid must be strictly increasing"))

    @property
    def dimension(self):
        return self.points.shape[1]

    @property
    def domain(self):
        return (float(self.grid[0]), float(self.grid[-1]))


def _bspline_basis(knots, k, x, left):
    """Cox-de Boor recursion at the sites x, where knots[left] <= x < knots[left + 1].

    Entry j of the result is the (len(x), j + 1) array of the degree-j
    B-splines that can be nonzero there, B_{left-j}, ..., B_{left}.  Each
    degree blends the previous one with the weights (x - t_i)/(t_{i+j} - t_i)
    (de Boor's BSPLVB); every denominator spans the nonempty interval at x.
    """
    levels = [np.ones((len(x), 1))]
    for j in range(1, k + 1):
        r = np.arange(j)
        lo = knots[left[:, None] - j + 1 + r]
        hi = knots[left[:, None] + 1 + r]
        term = levels[-1] / (hi - lo)
        b = np.zeros((len(x), j + 1))
        b[:, :-1] = (hi - x[:, None]) * term
        b[:, 1:] += (x[:, None] - lo) * term
        levels.append(b)
    return levels


def _solve_collocation(basis, first, rhs):
    """Solve the banded system whose row i holds ``basis[i]`` in the columns
    ``first[i]``, ``first[i] + 1``, ...; ``rhs`` may have several columns.

    Gaussian elimination without pivoting: a B-spline collocation matrix is
    totally positive (de Boor, ch. XIII), so no pivot is needed for
    stability.  Only the band is stored, as ``band[i, j - i + lower]``.  That
    entry sits at flat offset ``i * (width - 1) + j + lower``, so with a row
    stride of ``width - 1`` the band reads as the dense matrix (LAPACK's
    ``LDAB - 1`` view); the elimination touches only entries inside the band.
    """
    m, size = basis.shape
    rows = np.arange(m)
    lower = int(np.max(rows - first))
    upper = int(np.max(first + size - 1 - rows))
    width = lower + upper + 1
    band = np.zeros((m, width))
    band[rows[:, None], (first - rows + lower)[:, None] + np.arange(size)] = basis
    flat = band.reshape(-1)
    A = np.lib.stride_tricks.as_strided(
        flat[lower:], shape=(m, m), strides=((width - 1) * flat.itemsize, flat.itemsize))
    y = np.array(rhs, dtype=float)
    for i in range(m - 1):
        below = slice(i + 1, i + 1 + lower)
        right = slice(i + 1, i + 1 + upper)
        f = A[below, i] / A[i, i]
        A[below, right] -= f[:, None] * A[i, right]
        y[below] -= f[:, None] * y[i]
    for i in range(m - 1, -1, -1):
        right = slice(i + 1, i + 1 + upper)
        y[i] = (y[i] - A[i, right] @ y[right]) / A[i, i]
    return y


class SplineCurve(_BatchedCurve):
    """Interpolating spline of degree ``order`` through a SampledCurve;
    derivatives up to that degree.

    The knots are the not-a-knot layout: ``order + 1``-fold end knots and,
    for an odd degree, interior knots at the samples ``grid[h:-h]`` with
    h = (order + 1) // 2 (for an even degree, at the midpoints between
    samples, trimmed the same way), so a quintic on 129 samples has 135
    knots.  The coefficients solve the banded collocation system; the k-th
    derivative is the spline of degree ``order - k`` whose coefficients are
    the k-th differences of these (de Boor, ch. X).  Its domain is the
    sample grid: ``vec_jets`` refuses a t outside it, as on every curve.
    """

    def __init__(self, sampled, order=5):
        grid = sampled.grid
        if len(grid) <= order:
            raise InputError(f"need more than {order} samples for a degree-{order} spline")
        k = order
        h = (k + 1) // 2
        sites = grid if k % 2 else 0.5 * (grid[1:] + grid[:-1])
        self._knots = np.concatenate(
            (np.full(k + 1, grid[0]), sites[h:len(sites) - h], np.full(k + 1, grid[-1])))
        self._max_order = order
        self.dimension = sampled.dimension
        self.domain = sampled.domain
        left = self._interval(grid)
        coeffs = _solve_collocation(_bspline_basis(self._knots, k, grid, left)[k],
                                    left - k, sampled.points)
        n = len(grid)
        self._coeffs = [coeffs]
        for j in range(1, k + 1):
            span = self._knots[k + 1:k + 1 + n - j] - self._knots[j:n]
            self._coeffs.append((k - j + 1) * np.diff(self._coeffs[-1], axis=0)
                                / span[:, None])

    def _interval(self, x):
        """Index l of the knot interval [t_l, t_{l+1}) that serves each x."""
        k = self._max_order
        return np.clip(np.searchsorted(self._knots, x, side="right") - 1,
                       k, len(self._knots) - k - 2)

    def _derivative_values(self, x, m):
        """Derivatives 0..m on the grid x, shape (m + 1, len(x), dimension)."""
        k = self._max_order
        if m > k:
            raise InputError(f"spline-backed curve serves derivatives up to order {k}")
        left = self._interval(x)
        levels = _bspline_basis(self._knots, k, x, left)
        values = np.empty((m + 1, len(x), self.dimension))
        for j in range(m + 1):
            cols = (left - k)[:, None] + np.arange(k - j + 1)
            values[j] = np.einsum("ir,ird->id", levels[k - j], self._coeffs[j][cols])
        return values

    def _vec_jets(self, ts, order):
        values = self._derivative_values(ts, order)
        scale = np.array([1.0 / math.factorial(j) for j in range(order + 1)])
        return VecJet(ts, values * scale[:, None, None])


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    report: "SequenceReport"
    family: bool
    grid: tuple[float, ...]
    tolerance: float


def classify(curve, grid=None, tol=1e-9):
    """Sequence report of the curve, constant across the grid, plus family flag.

    The nullity and index sequences are computed from {alpha', ..., alpha^(n)}
    at every grid point and must agree everywhere; two disagreeing points are
    reported otherwise.  The family flag is True iff the nullity sequence is
    {0,1,2,2,1,0,...,0}.
    """
    n = curve.dimension
    metric = PseudoMetric(n)
    if grid is None:
        grid = chebyshev_grid(curve.domain[0], curve.domain[1], DEFAULT_CLASSIFY_POINTS)
    grid = [float(t) for t in grid]

    def reports_on(ts):
        return metric.sequence_reports(_derivative_rows(curve.vec_jets(ts, n), n)[0], tol)

    reports = pointwise_order(reports_on, grid)
    first = reports[0]
    for t, rep in zip(grid[1:], reports[1:]):
        if rep != first:
            raise ClassificationError(
                f"classification sequences differ between t={grid[0]} and t={t}: "
                f"nullity {first.nullity_sequence}, index {first.index_sequence} vs "
                f"nullity {rep.nullity_sequence}, index {rep.index_sequence}",
                points=(grid[0], t))
    family = first.nullity_sequence == family_nullity_sequence(n)
    return ClassificationReport(first, family, tuple(grid), tol)


def require_family(curve, grid=None, tol=1e-9):
    """classify() that raises FamilyError unless the curve is in the family."""
    report = classify(curve, grid, tol)
    if not report.family:
        raise FamilyError(
            f"curve has nullity sequence {report.report.nullity_sequence}, "
            f"not the supported family {family_nullity_sequence(curve.dimension)}")
    return report


# ---------------------------------------------------------------------------
# Pseudo-arc reparametrization
# ---------------------------------------------------------------------------

def _mirror(half, sign=1.0):
    """Values of a symmetric rule on [-1, 1] at its nodes in ascending order,
    from those at the nodes x >= 0 listed from x = 1 inward to x = 0."""
    half = np.asarray(half)
    return np.concatenate((sign * half[:-1], half[::-1]))


class CumulativeIntegral:
    """Cumulative integral of a positive integrand on [a, b].

    The table splits [a, b] into ``max(1, intervals // PANEL_CELLS)`` equal
    panels, 16 for the default 512, and integrates each with the 15-point
    Kronrod rule (QUADPACK's qk15).  ``nodes`` are the panel edges and
    ``cumulative`` the integral up to each.  The integrand ``f`` maps an
    array of parameters to an array of values; the table is one call, at
    ``sample_points`` (every panel's Kronrod nodes, ascending), which never
    include a panel edge.  ``error_estimate`` bounds the error of every
    table entry: the sum over panels of |K15 - G7|, with G7 the embedded
    7-point Gauss rule, plus a roundoff term 50 eps times the integral of
    |f|.  An off-node query adds the G7 rule from the panel edge below, so
    its tail is bounded like the panel's G7 sum.  The primitive is strictly
    increasing and ``f`` is its exact derivative, so inversion is a Newton
    iteration safeguarded by the bracketing panel.
    """

    # the 7/15-point Gauss-Kronrod pair on [-1, 1] (QUADPACK's qk15), in
    # ascending order; the Gauss nodes are the Kronrod nodes at odd indices
    _KRONROD_NODES = _mirror([0.991455371120812639206854697526329,
                              0.949107912342758524526189684047851,
                              0.864864423359769072789712788640926,
                              0.741531185599394439863864773280788,
                              0.586087235467691130294144845693013,
                              0.405845151377397166906606412076961,
                              0.207784955007898467600689403773245, 0.0], sign=-1.0)
    _KRONROD_WEIGHTS = _mirror([0.022935322010529224963732008058970,
                                0.063092092629978553290700663189204,
                                0.104790010322250183839876322541518,
                                0.140653259715525918745189590510238,
                                0.169004726639267902826583426598550,
                                0.190350578064785409913256402421014,
                                0.204432940075298892414161999234649,
                                0.209482141084727828012999174891714])
    _GAUSS_NODES = _KRONROD_NODES[1::2]
    _GAUSS_WEIGHTS = _mirror([0.129484966168869693270611432679082,
                              0.279705391489276667901467771423780,
                              0.381830050505118944950369775488975,
                              0.417959183673469387755102040816327])
    # stop when a step is below xtol + rtol |t|, the tolerances brentq used
    _NEWTON_XTOL = 1e-14
    _NEWTON_RTOL = 4 * np.finfo(float).eps
    _NEWTON_MAX_STEPS = 60

    def __init__(self, f, a, b, intervals=512):
        if intervals < 1:
            raise InputError("cumulative integral needs at least one interval")
        self.f = f
        self.a = float(a)
        self.b = float(b)
        self.nodes = self._edges(a, b, intervals)
        half = 0.5 * np.diff(self.nodes)[:, None]
        # f at each panel's Kronrod nodes, times the panel's half-width
        values = np.asarray(f(self.sample_points(a, b, intervals)), dtype=float)
        values = half * values.reshape(len(half), -1)
        kronrod = values @ self._KRONROD_WEIGHTS
        gauss = values[:, 1::2] @ self._GAUSS_WEIGHTS
        self.cumulative = np.concatenate(([0.0], np.cumsum(kronrod)))
        roundoff = 50.0 * np.finfo(float).eps * np.sum(np.abs(values) @ self._KRONROD_WEIGHTS)
        self.error_estimate = float(np.sum(np.abs(kronrod - gauss)) + roundoff)

    @staticmethod
    def _edges(a, b, intervals):
        return np.linspace(a, b, max(1, intervals // PANEL_CELLS) + 1)

    @classmethod
    def sample_points(cls, a, b, intervals):
        """The Kronrod nodes of every panel, in ascending order."""
        edges = cls._edges(a, b, intervals)
        half = 0.5 * np.diff(edges)[:, None]
        return (edges[:-1, None] + half + half * cls._KRONROD_NODES).ravel()

    def _integral_and_rate(self, t, with_rate):
        """Primitive at the array t (and, if asked, the integrand there),
        from one integrand call; every node, b included, reads the table."""
        i = np.clip(np.searchsorted(self.nodes, t, side="right") - 1,
                    0, len(self.nodes) - 1)
        t0 = self.nodes[i]
        value = self.cumulative[i]
        off = np.flatnonzero(t != t0)
        half = 0.5 * (t[off] - t0[off])
        queries = [((t0[off] + half)[:, None] + half[:, None] * self._GAUSS_NODES).ravel()]
        if with_rate:
            queries.append(t)
        if len(off) or with_rate:
            f = np.asarray(self.f(np.concatenate(queries)), dtype=float)
            m = self._GAUSS_NODES.size
            tails = f[:m * len(off)].reshape(len(off), m)
            value = value.copy()
            # a row sum, unlike a matrix product, does not depend on how many
            # queries share the call, so a point reads the same in any batch
            value[off] += half * np.sum(tails * self._GAUSS_WEIGHTS, axis=1)
            return value, f[tails.size:]
        return value, None

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        value, _ = self._integral_and_rate(np.atleast_1d(np.asarray(t, dtype=float)),
                                           with_rate=False)
        return float(value[0]) if scalar else value

    @property
    def total(self):
        return float(self.cumulative[-1])

    def solve(self, target):
        """Parameter t with integral(t) = target; ``target`` may be an array."""
        scalar = np.ndim(target) == 0
        targets = np.atleast_1d(np.asarray(target, dtype=float))
        slack = 1e-12 * (1.0 + self.total)
        require((-slack <= targets) & (targets <= self.total + slack), lambda j: InputError(
            f"target {float(targets[j])} outside the table range [0, {self.total}]"))
        targets = np.clip(targets, 0.0, self.total)
        i = np.clip(np.searchsorted(self.cumulative, targets) - 1,
                    0, len(self.nodes) - 2)
        lo, hi = self.nodes[i], self.nodes[i + 1]
        flo = self(lo) - targets
        fhi = self(hi) - targets
        t = np.where(flo >= 0.0, lo, hi)
        active = np.flatnonzero((flo < 0.0) & (fhi > 0.0))
        if len(active):
            t[active] = self._newton(targets[active], lo[active], hi[active],
                                     flo[active], fhi[active])
        return float(t[0]) if scalar else t

    def _newton(self, targets, lo, hi, flo, fhi):
        """Roots of integral(t) - target inside sign-changing brackets."""
        t = lo - flo * (hi - lo) / (fhi - flo)
        out = t.copy()
        active = np.arange(len(t))
        for _ in range(self._NEWTON_MAX_STEPS):
            value, rate = self._integral_and_rate(t, with_rate=True)
            F = value - targets
            below = F < 0.0
            lo = np.where(below, t, lo)
            hi = np.where(below, hi, t)
            step = F / rate
            newt = t - step
            # a step that leaves the bracket is replaced by bisection
            stray = ~((newt > lo) & (newt < hi)) | ~np.isfinite(newt)
            newt = np.where(stray, 0.5 * (lo + hi), newt)
            tol = self._NEWTON_XTOL + self._NEWTON_RTOL * np.abs(newt)
            done = (F == 0.0) | (np.abs(newt - t) <= tol) | (hi - lo <= tol)
            out[active] = np.where(F == 0.0, t, newt)
            keep = ~done
            active, t, targets = active[keep], newt[keep], targets[keep]
            lo, hi = lo[keep], hi[keep]
            if not len(active):
                break
        return out


class _MonotoneReparamCurve(_BatchedCurve):
    """View of a curve in a new parameter with a positive jet-expressible rate.

    The monotone table integrates the subclass rate over the base domain;
    point and derivative queries invert it, then transplant the jets of the
    base curve through series reversion of the rate's antiderivative jet.
    Exact up to table accuracy.  The new parameter starts at ``origin``: 0,
    or the start of the base domain when ``_origin_from_domain`` is set.
    """

    _origin_from_domain = False

    def __init__(self, base, intervals=512):
        self.base = base
        self.dimension = base.dimension
        self._metric = PseudoMetric(base.dimension)
        self.origin = float(base.domain[0]) if self._origin_from_domain else 0.0
        a, b = base.domain
        # the table reaches the rate through a weak reference: a bound method
        # would close the cycle self -> table -> self, which only the cycle
        # collector frees, and this curve holds its base's arrays
        rate = weakref.WeakMethod(self._rate)
        self._table = CumulativeIntegral(lambda ts: rate()(ts), a, b, intervals)
        self.domain = (self.origin, self.origin + self._table.total)

    def _rate(self, ts):
        return self._rate_squares(ts) ** self._rate_power

    def _rate_squares(self, ts):
        """Squared rate at an array of parameters (for a table, its sample
        points), taken in ascending parameter order, so a refusal raised
        by ``_rate_square`` names the first refused point."""
        order = np.argsort(ts, kind="stable")
        sq = np.empty(len(ts))
        sq[order] = pointwise_order(self._rate_square, ts[order], TABLE_BLOCK)
        return sq

    def _rate_square(self, t):
        raise NotImplementedError

    def _rate_square_jet(self, t, order):
        raise NotImplementedError

    def new_parameter_of(self, t):
        return self.origin + self._table(t)

    def parameter_of(self, s):
        return self._table.solve(np.asarray(s, dtype=float) - self.origin)

    def _vec_jets(self, ss, order):
        ts = self.parameter_of(ss)
        g = self._rate_square_jet(ts, order + 1)
        rate = (g.log() * self._rate_power).exp()
        phi = rate.antiderivative(ss).truncate(order)
        psi = jet_invert(phi)
        return jet_compose(self.base.vec_jets(ts, order), psi)


class ReparametrizedCurve(_MonotoneReparamCurve):
    """Pseudo-arc view: the new parameter integrates <alpha''',alpha'''>^(1/6),
    normalizing the third derivative to unit self-product.

    The new parameter starts at the domain start, so a curve that is already
    pseudo-arc parametrized reparametrizes to the identity map.
    """

    _rate_power = 1.0 / 6.0
    _origin_from_domain = True

    def pseudo_arc_of(self, t):
        return self.new_parameter_of(t)

    def _rate(self, ts):
        """Rate at an array of parameters; a <alpha''', alpha'''> that is not
        positive is refused at its minimum over ``ts``, where a NaN counts as
        the minimum."""
        sq = self._rate_squares(ts)

        def refusal(_):
            order = np.argsort(ts, kind="stable")
            worst = order[np.argmin(sq[order])]
            return FamilyError(
                f"<alpha''', alpha'''> = {sq[worst]:.3e} <= 0 near t={float(ts[worst])}: "
                "monotone reparametrization impossible")

        require(sq > 0.0, refusal)
        return sq ** self._rate_power

    def _rate_square(self, t):
        a3 = self.base.vec_jets(t, 3).coeffs[3] * 6.0
        return self._metric.inner(a3, a3)

    def _rate_square_jet(self, t, order):
        vj = self.base.vec_jets(t, order + 3)
        a3 = vj.differentiate().differentiate().differentiate()
        return self._metric.inner_jet(a3, a3)


class ArcLengthCurve(_MonotoneReparamCurve):
    """Unit-speed view of a spacelike curve: the new parameter integrates |c'|.

    This is the one arc-length table; :class:`InvoluteCurve` reads its s(t)
    off one.  A table point that fails <c', c'> > 0 (a NaN fails it) raises
    HypothesisError with that condition, located at the first such point in
    ascending t.
    """

    _rate_power = 0.5

    def arc_length_of(self, t):
        return self.new_parameter_of(t)

    def _rate_square(self, t):
        d1 = self.base.vec_jets(t, 1).coeffs[1]
        sq = self._metric.inner(d1, d1)
        require(sq > 0.0, lambda j: HypothesisError(
            f"<c',c'> = {sq[j]:.3e} at t={t[j]}: curve is not spacelike",
            condition="<c',c'> > 0", location=float(t[j])))
        return sq

    def _rate_square_jet(self, t, order):
        d1 = self.base.vec_jets(t, order + 1).differentiate()
        return self._metric.inner_jet(d1, d1)


class MappedCurve(_BatchedCurve):
    """Exact parameter substitution s -> base(g(s)) for a symbolic map g.

    Unlike the quadrature-backed reparametrizations this composes jets
    directly, so it costs nothing beyond the base curve's own evaluations;
    useful when the wanted parameter change has a closed form.
    """

    def __init__(self, base, mapping, domain, parameter="s"):
        self.base = base
        self.dimension = base.dimension
        self.mapping = parse(mapping, parameter) if isinstance(mapping, str) else mapping
        self.domain = (float(domain[0]), float(domain[1]))
        _check_interval(self.domain)
        for s in self.domain:
            _check_in_domain(jet_eval(self.mapping, s, 0).value, base.domain)

    def _vec_jets(self, ss, order):
        g = jet_eval(self.mapping, ss, order)
        return jet_compose(self.base.vec_jets(g.value, order), g)


@dataclass(frozen=True)
class ReparamResult:
    """Monotone table, resampled curve and the exact reparametrized view;
    the arrays are read-only."""

    table_t: np.ndarray
    table_s: np.ndarray
    sampled: SampledCurve
    curve: ReparametrizedCurve
    unit_speed_defect: float


def pseudo_arc_reparam(curve, grid_density=129, tol=1e-9):
    """Resample a family curve at uniform pseudo-arc values.

    Returns the monotone table sbar(t), the resampled curve (points are exact
    evaluations at the inverted parameters) and the max deviation of
    <d^3 alpha/ds^3, d^3 alpha/ds^3> from 1.  That deviation is read off the
    quintic :class:`SplineCurve` through the resampled points, at every
    sample but the first and last three, not off the reparametrized jets,
    which are unit-speed by construction.
    """
    require_family(curve, tol=tol)
    rep = ReparametrizedCurve(curve, intervals=max(512, 4 * grid_density))
    table_t = np.linspace(curve.domain[0], curve.domain[1], grid_density)
    table_s = pointwise_order(rep.pseudo_arc_of, table_t)
    sbar_grid = np.linspace(rep.domain[0], rep.domain[1], grid_density)
    params = pointwise_order(rep.parameter_of, sbar_grid)
    points = pointwise_order(lambda ts: curve.vec_jets(ts, 0).value, params)
    sampled = SampledCurve(sbar_grid, points)
    spline = SplineCurve(sampled)
    interior = sbar_grid[3:-3]
    if not len(interior):
        raise InputError(
            f"the unit-speed check reads the spline inside the first and last "
            f"three samples: need at least 7, got {grid_density}")
    d3 = spline._derivative_values(interior, 3)[3]
    defect = np.max(np.abs(PseudoMetric(curve.dimension).inner(d3, d3) - 1.0))
    return ReparamResult(_read_only(table_t), _read_only(table_s), sampled, rep,
                         float(defect))
