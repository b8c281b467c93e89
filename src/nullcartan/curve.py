"""Curve model, family classification and pseudo-arc reparametrization.

A curve is anything with ``dimension``, ``domain`` and ``vec_jets(ts,
order)``: the vector jets (Taylor coefficients of the point and its first
``order`` derivatives) on a whole grid of parameters in one batched pass.
That is the only contract the library relies on; its points are
``vec_jets(ts, 0).value``, and every entry that takes a base curve refuses
an object without it with InputError.  Every curve class here and in
``constructions`` serves it through :class:`_BatchedCurve`, whose ``vec_jets`` refuses a
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
from functools import cached_property, lru_cache

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
    jet_invert,
    parse,
)
from .metric import DEFAULT_TOL, _row_norms, _shared_metric, family_nullity_sequence
from .record import Record

__all__ = [
    "Curve",
    "SampledCurve",
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
# default rows of a reparametrization or synthesis table
DEFAULT_TABLE_ROWS = 129
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


def _check_curve(curve):
    """``curve`` itself, if it has the protocol's ``dimension``, ``domain``
    and ``vec_jets``; otherwise InputError naming its type and what it
    lacks.  Every entry that takes a base curve calls it before reading one."""
    missing = [name for name in ("dimension", "domain", "vec_jets") if not hasattr(curve, name)]
    if missing:
        raise InputError(f"{type(curve).__name__} is not a curve: it lacks {', '.join(missing)}")
    return curve


def _check_in_domain(t, domain):
    """Raise InputError for the first parameter (of a float or array) outside."""
    a, b = domain
    slack = 1e-12 * (1.0 + abs(a) + abs(b))
    ts = np.atleast_1d(t)
    require((a - slack <= ts) & (ts <= b + slack), lambda j: InputError(
        f"parameter {float(ts[j])} outside domain [{a}, {b}]"))


@lru_cache(maxsize=32)
def _factorials(n):
    """Read-only column 1!, ..., n! along axis 0 of an (n, m, dim) array."""
    column = np.array([math.factorial(k) for k in range(1, n + 1)], dtype=float)[:, None, None]
    column.flags.writeable = False
    return column


def _derivative_rows(vj, n):
    """alpha', ..., alpha^(n) off a batched jet of order >= n, shape (m, n, dim),
    and their norms (m, n).  An infinite norm, a derivative that overflows
    floating point, is a numerical failure at the first t with one; a NaN is
    left to the gates that read the rows."""
    derivs = (vj.coeffs[1:n + 1] * _factorials(n)).swapaxes(0, 1).copy()
    norms = _row_norms(derivs)
    overflow = np.isinf(norms)
    require(~overflow.any(axis=1), lambda j: DegenerateBasisError(
        f"|alpha^({int(overflow[j].argmax()) + 1})| overflows at t={vj.base[j]}: "
        "the derivative system is too large for floating point"))
    return derivs, norms


def _parameter_grid(grid):
    """``grid`` as a float array, if it is a non-empty 1-D sequence of numbers
    (the rule ``frame_grid`` applies); otherwise InputError, before any point
    of it is read.  Grid entries that report their grid read it back as
    ``.tolist()``, a list of Python floats."""
    try:
        ts = np.asarray(grid, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"a parameter grid is a 1-D sequence of numbers: {exc}") from None
    if ts.ndim != 1:
        raise InputError(f"a parameter grid is a non-empty 1-D sequence of numbers, "
                         f"not one of shape {ts.shape}")
    if not ts.size:
        raise InputError("the parameter grid is empty")
    return ts


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
    A grid that is not a non-empty 1-D sequence of numbers is an InputError
    (:func:`_parameter_grid`).
    """
    ts = _parameter_grid(ts)
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


class Curve(_BatchedCurve, Record, eq=False):
    """Symbolic curve: n component expressions over one parameter.

    The components are compiled once into one :class:`Program`.  When they
    are polynomials of degree at most ``FOLD_DEGREE`` (no division by a
    series, negative power or function call after constant folding), their
    jets on any grid are one Taylor shift of a coefficient block folded once
    per curve; every other curve runs the program on each grid.  The degree
    is capped because rounding in the shifted monomial basis grows with it.
    A jet that is not finite is refused through ``require`` at the first
    grid point with one, naming the first such component there.
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
        evaluation error names its component, and a non-finite jet its first
        grid point and the first component whose jet is not finite there."""
        try:
            if self._fold is None:
                coeffs = np.stack(self._program.run(Jet.variable(ts, order).coeffs), axis=-1)
            else:
                c, r, table = self._fold
                coeffs = _shift_jets(table, (ts - c) / r, order)
        except ExprEvaluationError as exc:
            raise ExprEvaluationError(
                f"component {exc.output}: {exc.reason}", exc.subexpression) from None
        # finite over the orders, point by point, then component by component
        finite = np.logical_and.reduce(np.isfinite(coeffs)).ravel()
        require(finite, lambda j: ExprEvaluationError(
            f"component {j % self.dimension}: non-finite jet at {self.parameter}="
            f"{np.atleast_1d(ts)[j // self.dimension]}", str(self.components[j % self.dimension])))
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


class SampledCurve(Record, eq=False):
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


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class ClassificationReport(Record):
    report: "SequenceReport"
    family: bool
    grid: tuple[float, ...]
    tolerance: float


def classify(curve, grid=None, tol=DEFAULT_TOL):
    """Sequence report of the curve, constant across the grid, plus family flag.

    The nullity and index sequences are computed from {alpha', ..., alpha^(n)}
    at every grid point, in one batched pass that raises for the first point
    whose sequences are refused (ClassificationError) or differ from the
    first point's, reported with it, as a loop over the grid would.  The
    family flag is True iff the nullity sequence is {0,1,2,2,1,0,...,0}.
    """
    n = _check_curve(curve).dimension
    metric = _shared_metric(n)
    if grid is None:
        grid = chebyshev_grid(curve.domain[0], curve.domain[1], DEFAULT_CLASSIFY_POINTS)
    grid = _parameter_grid(grid).tolist()

    def report_on(ts):
        # row 0 is the first point, against which a point rerun alone is checked
        ts = np.concatenate([grid[:1], ts])
        reports, bad, refusal = metric._classified(
            _derivative_rows(curve.vec_jets(ts, n), n)[0], tol)
        first = reports[0]
        same = np.array([rep == first for rep in reports])
        require(~bad & same, lambda j: refusal(j) if bad[j] else ClassificationError(
            f"classification sequences differ between t={grid[0]} and t={ts[j]}: "
            f"nullity {first.nullity_sequence}, index {first.index_sequence} vs "
            f"nullity {reports[j].nullity_sequence}, index {reports[j].index_sequence}",
            points=(grid[0], float(ts[j]))))
        return first

    first = pointwise_order(report_on, grid)
    family = first.nullity_sequence == family_nullity_sequence(n)
    return ClassificationReport(first, family, tuple(grid), tol)


def require_family(curve, grid=None, tol=DEFAULT_TOL):
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


def _legendre(x, n):
    """P_0(x), ..., P_{n-1}(x) at the array x, as the columns of a (len(x), n)
    array, by the three-term recurrence."""
    p = np.empty((len(x), n))
    p[:, 0] = 1.0
    p[:, 1] = x
    for k in range(1, n - 1):
        p[:, k + 1] = ((2 * k + 1) * x * p[:, k] - k * p[:, k - 1]) / (k + 1)
    return p


@lru_cache(maxsize=1)
def _kronrod_to_legendre():
    """The 15 x 15 map from values at the Kronrod nodes (a row) to the Legendre
    coefficients of their degree-14 interpolant (condition number 6.4).
    Built once, on first use, read-only: every table's panels pass through it."""
    nodes = CumulativeIntegral._KRONROD_NODES
    matrix = np.linalg.inv(_legendre(nodes, nodes.size)).T
    matrix.flags.writeable = False
    return matrix


class CumulativeIntegral:
    """Cumulative integral of a positive integrand on [a, b].

    The table splits [a, b] into ``max(1, intervals // PANEL_CELLS)`` equal
    panels, 16 for the default 512, and integrates each with the 15-point
    Kronrod rule (QUADPACK's qk15).  ``nodes``, the panel edges, and
    ``cumulative``, the integral up to each, are read-only.  The integrand
    ``f`` maps an array of t to an array of values; it is called once, by
    the constructor, at ``sample_points`` (every panel's Kronrod nodes,
    ascending), which never include a panel edge, and is not kept.
    ``error_estimate`` bounds the error of every table entry: the sum over
    panels of |K15 - G7|, with G7 the embedded 7-point Gauss rule, plus a
    roundoff term 50 eps times the integral of |f|.

    Between its nodes the table reads each panel's interpolant: the degree-14
    polynomial through the panel's 15 Kronrod values, kept as Legendre
    coefficients.  Its integral over the whole panel is the K15 sum, so reads
    are continuous at the edges.  A node, ``b`` included, reads
    ``cumulative`` exactly; a point past ``b`` within the domain slack reads
    the last panel's interpolant.  A t outside [a, b] beyond that slack, or
    a NaN, is refused with InputError.  Inversion is a Newton iteration on
    the interpolant, whose rate is the interpolated integrand, safeguarded
    by the bracketing panel.
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
    _GAUSS_WEIGHTS = _mirror([0.129484966168869693270611432679082,
                              0.279705391489276667901467771423780,
                              0.381830050505118944950369775488975,
                              0.417959183673469387755102040816327])
    # 2k + 1 for k = 1, ..., 14: the integral of P_k from -1 to x is
    # (P_{k+1}(x) - P_{k-1}(x)) / (2k + 1)
    _ODD = np.arange(3, 30, 2)
    # stop when a step is below xtol + rtol |t|, the tolerances brentq used
    _NEWTON_XTOL = 1e-14
    _NEWTON_RTOL = 4 * np.finfo(float).eps
    _NEWTON_MAX_STEPS = 60

    def __init__(self, f, a, b, intervals=512):
        if intervals < 1:
            raise InputError("cumulative integral needs at least one interval")
        self.a = float(a)
        self.b = float(b)
        self.nodes = _read_only(self._edges(a, b, intervals))
        # f at each panel's Kronrod nodes, the Legendre coefficients of its
        # interpolant there, and its values times the panel's half-width
        half, points = self._panels(self.nodes)
        f_values = np.asarray(f(points.ravel()), dtype=float).reshape(points.shape)
        self._coeffs = f_values @ _kronrod_to_legendre()
        values = half * f_values
        kronrod, gauss = self._panel_sums(values)
        self.cumulative = _read_only(np.concatenate(([0.0], np.cumsum(kronrod))))
        roundoff = 50.0 * np.finfo(float).eps * np.sum(np.abs(values) @ self._KRONROD_WEIGHTS)
        self.error_estimate = float(np.sum(np.abs(kronrod - gauss)) + roundoff)

    @staticmethod
    def _edges(a, b, intervals):
        return np.linspace(a, b, max(1, intervals // PANEL_CELLS) + 1)

    @classmethod
    def _panels(cls, edges):
        """Half-widths (a column) and Kronrod nodes (one ascending row per
        panel) of the panels between the ascending ``edges``."""
        half = 0.5 * np.diff(edges)[:, None]
        return half, edges[:-1, None] + half + half * cls._KRONROD_NODES

    @classmethod
    def _panel_sums(cls, values):
        """The K15 and embedded G7 integrals of each panel, from ``values``:
        the integrand at the panel's Kronrod nodes times its half-width, one
        row per panel."""
        return values @ cls._KRONROD_WEIGHTS, values[:, 1::2] @ cls._GAUSS_WEIGHTS

    @classmethod
    def sample_points(cls, a, b, intervals):
        """The Kronrod nodes of every panel, in ascending order."""
        return cls._panels(cls._edges(a, b, intervals))[1].ravel()

    def _integral_and_rate(self, t):
        """Primitive and interpolated integrand at the array t, off each
        panel's interpolant; every node, b included, reads the table."""
        i = np.clip(np.searchsorted(self.nodes, t, side="right") - 1,
                    0, len(self.nodes) - 1)
        # a point at or just past b lies in the last panel
        p = np.minimum(i, len(self._coeffs) - 1)
        half = 0.5 * (self.nodes[p + 1] - self.nodes[p])
        u = (t - self.nodes[p]) / half
        legendre = _legendre(u - 1.0, 16)
        integrals = np.column_stack((u, (legendre[:, 2:] - legendre[:, :-2]) / self._ODD))
        c = self._coeffs[p]
        # a row sum, unlike a matrix product, does not depend on how many
        # queries share the call, so a point reads the same in any batch
        value = self.cumulative[p] + half * np.sum(c * integrals, axis=1)
        value = np.where(t == self.nodes[i], self.cumulative[i], value)
        return value, np.sum(c * legendre[:, :-1], axis=1)

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        _check_in_domain(ts, (self.a, self.b))
        value, _ = self._integral_and_rate(ts)
        return float(value[0]) if scalar else value

    @property
    def total(self):
        return float(self.cumulative[-1])

    def solve(self, target):
        """Parameter t with integral(t) = target; ``target`` may be an array.

        The bracketing panel's edges are nodes, so their values are read off
        ``cumulative``, which is what the interpolant reads there; only the
        Newton iteration inside a sign-changing bracket reads the interpolant.
        """
        scalar = np.ndim(target) == 0
        targets = np.atleast_1d(np.asarray(target, dtype=float))
        slack = 1e-12 * (1.0 + self.total)
        require((-slack <= targets) & (targets <= self.total + slack), lambda j: InputError(
            f"target {float(targets[j])} outside the table range [0, {self.total}]"))
        targets = np.clip(targets, 0.0, self.total)
        i = np.clip(np.searchsorted(self.cumulative, targets) - 1,
                    0, len(self.nodes) - 2)
        lo, hi = self.nodes[i], self.nodes[i + 1]
        flo = self.cumulative[i] - targets
        fhi = self.cumulative[i + 1] - targets
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
            value, rate = self._integral_and_rate(t)
            F = value - targets
            below = F < 0.0
            lo = np.where(below, t, lo)
            hi = np.where(below, hi, t)
            step = F / rate
            newt = t - step
            # convergence reads the Newton step itself: at a root F may be one
            # ulp off and move a bracket end onto t, and that step must not
            # turn into bisection; any other step that leaves the bracket (or
            # is not finite) does
            tol = self._NEWTON_XTOL + self._NEWTON_RTOL * np.abs(t)
            converged = (F == 0.0) | (np.abs(step) <= tol)
            stray = ~converged & ~((newt > lo) & (newt < hi))
            newt = np.where(stray, 0.5 * (lo + hi), newt)
            done = converged | (hi - lo <= tol)
            out[active] = np.where(F == 0.0, t, newt)
            keep = ~done
            active, t, targets = active[keep], newt[keep], targets[keep]
            lo, hi = lo[keep], hi[keep]
            if not len(active):
                break
        return out


class _MonotoneReparamCurve(_BatchedCurve):
    """View of a curve in a new parameter whose rate is <c^(k), c^(k)>^(1/(2k)).

    ``_order`` is k: 3 for the pseudo-arc parameter, 1 for arc length.  The
    monotone table integrates the rate over the base domain; point and
    derivative queries invert it, then transplant the jets of the base curve
    through series reversion of the rate's antiderivative jet.  Exact up to
    table accuracy.  A table point whose <c^(k), c^(k)> is not positive (a
    NaN is not) is refused by the subclass's ``_refusal``, at the first such
    point in ascending t.  The new parameter starts at ``origin``: 0, or the
    start of the base domain when ``_origin_from_domain`` is set.
    """

    _origin_from_domain = False

    def __init__(self, base, intervals=512):
        self.base = _check_curve(base)
        self.dimension = base.dimension
        self._metric = _shared_metric(base.dimension)
        self.origin = float(base.domain[0]) if self._origin_from_domain else 0.0
        a, b = base.domain
        self._table = CumulativeIntegral(self._rate, a, b, intervals)
        self.domain = (self.origin, self.origin + self._table.total)

    def _rate(self, ts):
        """Rate at the table's sample points, which ascend, so a refusal
        names the first refused point."""
        return pointwise_order(self._rate_square, ts, TABLE_BLOCK) ** (1.0 / (2 * self._order))

    def _rate_square(self, t):
        """<c^(k), c^(k)> at an array of parameters, refused where not positive."""
        dk = self.base.vec_jets(t, self._order).derivative_value(self._order)
        sq = self._metric.inner(dk, dk)
        require(sq > 0.0, lambda j: self._refusal(sq[j], float(t[j])))
        return sq

    def new_parameter_of(self, t):
        return self.origin + self._table(t)

    def parameter_of(self, s):
        return self._table.solve(np.asarray(s, dtype=float) - self.origin)

    def _vec_jets(self, ss, order):
        k = self._order
        ts = self.parameter_of(ss)
        # one base evaluation serves the rate jet, to order + 1, and the composition
        vj = self.base.vec_jets(ts, order + k + 1)
        dk = vj
        for _ in range(k):
            dk = dk.differentiate()
        rate = (self._metric.inner_jet(dk, dk).log() * (1.0 / (2 * k))).exp()
        psi = jet_invert(rate.antiderivative(ss).truncate(order))
        return jet_compose(vj.truncate(order), psi)


class ReparametrizedCurve(_MonotoneReparamCurve):
    """Pseudo-arc view: the new parameter integrates <alpha''',alpha'''>^(1/6),
    normalizing the third derivative to unit self-product.  A table point
    where <alpha''', alpha'''> is not positive raises FamilyError.

    The new parameter starts at the domain start, so a curve that is already
    pseudo-arc parametrized reparametrizes to the identity map.
    """

    _order = 3
    _origin_from_domain = True
    pseudo_arc_of = _MonotoneReparamCurve.new_parameter_of
    # bound in the class body too: bench/spans.py wraps the rate square here
    _rate_square = _MonotoneReparamCurve._rate_square

    def _refusal(self, sq, t):
        return FamilyError(f"<alpha''', alpha'''> = {sq:.3e} <= 0 near t={t}: "
                           "monotone reparametrization impossible")


class ArcLengthCurve(_MonotoneReparamCurve):
    """Unit-speed view of a spacelike curve: the new parameter integrates |c'|.

    This is the one arc-length table; :class:`InvoluteCurve` reads its s(t)
    off one.  A table point that fails <c', c'> > 0 raises HypothesisError
    with that condition, located there.
    """

    _order = 1
    arc_length_of = _MonotoneReparamCurve.new_parameter_of
    # bound in the class body too: bench/spans.py wraps the rate square here
    _rate_square = _MonotoneReparamCurve._rate_square

    def _refusal(self, sq, t):
        return HypothesisError(f"<c',c'> = {sq:.3e} at t={t}: curve is not spacelike",
                               condition="<c',c'> > 0", location=t)


class MappedCurve(_BatchedCurve):
    """Exact parameter substitution s -> base(g(s)) for a symbolic map g.

    Unlike the quadrature-backed reparametrizations this composes jets
    directly, so it costs nothing beyond the base curve's own evaluations;
    useful when the wanted parameter change has a closed form.
    """

    def __init__(self, base, mapping, domain, parameter="s"):
        self.base = _check_curve(base)
        self.dimension = base.dimension
        self.mapping = parse(mapping, parameter) if isinstance(mapping, str) else mapping
        self.domain = (float(domain[0]), float(domain[1]))
        _check_interval(self.domain)
        self._program = Program((self.mapping,))
        for s in self.domain:
            _check_in_domain(self._program.jets(s, 0)[0].value, base.domain)

    def _vec_jets(self, ss, order):
        g = self._program.jets(ss, order)[0]
        return jet_compose(self.base.vec_jets(g.value, order), g)


class ReparamResult(Record):
    """Monotone table, resampled curve, the exact reparametrized view and the
    samples' unit speed defect, the worst mean pseudo-arc speed minus 1 over
    one interval (:func:`pseudo_arc_reparam`); the arrays are read-only."""

    table_t: np.ndarray
    table_s: np.ndarray
    sampled: SampledCurve
    curve: ReparametrizedCurve
    unit_speed_defect: float


def pseudo_arc_reparam(curve, grid_density=DEFAULT_TABLE_ROWS, tol=DEFAULT_TOL):
    """Resample a family curve at uniform pseudo-arc values.

    Returns the monotone table sbar(t), the resampled curve (points are exact
    evaluations at the inverted parameters t_0 < ... < t_{m-1}) and its unit
    speed defect.  The samples lie ds apart in sbar, so the table's rate must
    integrate to ds over each [t_i, t_{i+1}]; the defect is the largest
    (|K15 - ds| + |K15 - G7|) / ds, with the table's own rule pair on each
    interval: the worst mean speed minus 1, plus its quadrature error.  A
    grid of fewer than 2 samples has no spacing: InputError, before any table.
    """
    if grid_density < 2:
        raise InputError(f"the unit-speed check reads the spacing of the samples: "
                         f"need at least 2, got {grid_density}")
    require_family(curve, tol=tol)
    rep = ReparametrizedCurve(curve, intervals=max(512, 4 * grid_density))
    table_t = np.linspace(curve.domain[0], curve.domain[1], grid_density)
    table_s = pointwise_order(rep.pseudo_arc_of, table_t)
    sbar_grid = np.linspace(rep.domain[0], rep.domain[1], grid_density)
    params = pointwise_order(rep.parameter_of, sbar_grid)
    points = pointwise_order(lambda ts: curve.vec_jets(ts, 0).value, params)
    half, nodes = CumulativeIntegral._panels(params)
    kronrod, gauss = CumulativeIntegral._panel_sums(
        half * rep._rate(nodes.ravel()).reshape(nodes.shape))
    spacing = np.diff(sbar_grid)
    defect = np.max((np.abs(kronrod - spacing) + np.abs(kronrod - gauss)) / spacing)
    return ReparamResult(_read_only(table_t), _read_only(table_s),
                         SampledCurve(sbar_grid, points), rep, float(defect))
