"""Cartan frame extraction and Frenet-system residual verification.

:func:`frenet_system` states the Frenet equations of a pseudo-arc-parametrized
curve in the family {0,1,2,2,1,0,...,0} once, as a table built once per n;
extraction, the residual report and the synthesizer (``constructions``) read
them off it.  Extraction walks the rows from L1 = alpha': a row's derivative
minus its known terms is its new vector times its curvature.  The
normalizations <L1,N1> = 1, <L2,N2> = -1, null N1/N2 and orthonormal W's fix
k1 = <W3',W3'>/2, k2 = (<N2',N2'> - k1^2)/2 and ki = |vi| (i >= 3), vi being
what is left of the row.  What is left of the last row is the closure
residual.  All frame derivatives ride on jets of the curve one order higher
than the vectors they feed, never on numeric differencing.  Normalizer
curvatures come out positive, which automatically matches the orientation of
(L1,L2,W3,N2,N1,W4,...) to that of (alpha',...,alpha^(n)); the orientation is
still checked: the sign of det of the frame must equal the slogdet sign of
the derivative basis, and a derivative basis with a QR pivot at roundoff,
relative to the derivative norms the family gates read, fails loudly.

A :class:`Frame` stacks alpha and the frame vectors in :func:`frenet_system`
order, as values or jets, with the curvatures.  :func:`frame_grid` is the one
extraction path; :func:`frame_jets` and :func:`cartan_frame_at` read index 0 of
the one-point ``frame_grid``, the latter at order 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .curve import _check_curve, _derivative_rows, pointwise_order
from .errors import (
    DegenerateBasisError,
    FamilyError,
    FrameDegeneracyError,
    InputError,
    require,
)
from .expr import Jet, VecJet, _constant, _div, _mul, _scale, _sqrt, _weighted
from .metric import _row_norms, _shared_metric
from .record import Record

__all__ = [
    "Frame",
    "FrenetResidualReport",
    "cartan_frame_at",
    "cartan_frames",
    "frame_grid",
    "frame_jets",
    "frame_rows",
    "frenet_residuals",
    "frenet_system",
    "stencil_residuals",
]

NULL_CHAIN_GATE = 1e-6
PSEUDO_ARC_GATE = 1e-6
CURVATURE_FLOOR = 1e-10
# the null-chain identities of the family gates and their Gram entries
_NULL_CHAIN = ("<a',a'>", "<a',a''>", "<a'',a''>", "<a',a'''>", "<a'',a'''>")
_NULL_CHAIN_ROWS, _NULL_CHAIN_COLS = np.array([0, 0, 1, 0, 1]), np.array([0, 1, 1, 2, 2])


@lru_cache(maxsize=32)
def frenet_system(n):
    """The Frenet equations in dimension n as ``((row, terms), ...)``, built
    once per n.

    ``terms`` is ``((target, c, sign), ...)``: row' is the sum of
    sign * k_c * target, where k_0 = 1.  Rows come in the order alpha, L1,
    L2, W3, N2, N1, W4, ..., W_{n-2}, the orientation order of the frame and
    the column order of reports.  From N1 on, each row is coupled back (N1 to
    L2, W4 to L1, W_i to W_{i-1}) and forward to the next row of the chain.
    """
    chain = ["N1"] + [f"W{i}" for i in range(4, n - 1)]
    back = [("L2", 2, 1), ("L1", 3, -1)] + [(w, i, -1) for i, w in enumerate(chain[1:], 4)]
    system = [
        ("alpha", (("L1", 0, 1),)),
        ("L1", (("L2", 0, 1),)),
        ("L2", (("W3", 0, 1),)),
        ("W3", (("L2", 1, -1), ("N2", 0, 1))),
        ("N2", (("L1", 2, 1), ("N1", 0, 1), ("W3", 1, -1))),
    ]
    for j, row in enumerate(chain):
        ahead = ((chain[j + 1], j + 3, 1),) if j + 1 < len(chain) else ()
        system.append((row, (back[j],) + ahead))
    return tuple(system)


def frame_rows(n):
    """Frame row names in the orientation order L1, L2, W3, N2, N1, W4, ...:
    the rows of :func:`frenet_system` after alpha."""
    return [row for row, _ in frenet_system(n)[1:]]


class Frame(Record, eq=False):
    """A Cartan frame, or a batch of them over a grid ``t``.

    ``rows`` stacks the curve point alpha and the frame vectors on axis -2
    in :func:`frenet_system` order (alpha, L1, L2, W3, N2, N1, W4, ...): an
    array (..., n+1, n), or a :class:`VecJet` with coefficients
    (K+1, ..., n+1, n) whose ``curvatures`` k1..k_{n-3} are jets too.  An
    extracted frame also carries its closure residual and orientation sign.
    The named vectors are views of ``rows``; :meth:`at` picks one grid point
    and :attr:`value` reads a jet frame at order 0.
    """

    rows: np.ndarray | VecJet
    t: float | np.ndarray | None
    curvatures: tuple
    closure_residual: float | np.ndarray | None
    orientation: int | np.ndarray | None

    def __init__(self, rows, t=None, curvatures=(), closure_residual=None,
                 orientation=None):  # written out: every extraction builds some
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "curvatures", curvatures)
        object.__setattr__(self, "closure_residual", closure_residual)
        object.__setattr__(self, "orientation", orientation)

    def _row(self, i):
        r = self.rows
        return VecJet(r.base, r.coeffs[..., i, :]) if isinstance(r, VecJet) else r[..., i, :]

    alpha = property(lambda self: self._row(0))
    L1 = property(lambda self: self._row(1))
    L2 = property(lambda self: self._row(2))
    N2 = property(lambda self: self._row(4))
    N1 = property(lambda self: self._row(5))

    @property
    def W(self):
        """W3, W4, ..., W_{n-2}: row 3, then the rows from 6 on."""
        rows = self.rows.coeffs if isinstance(self.rows, VecJet) else self.rows
        return tuple(self._row(i) for i in (3, *range(6, rows.shape[-2])))

    def at(self, i):
        """The frame at the i-th point of a batch: a jet frame, or a copy of
        row i of a frame of values with its curvatures as Python floats."""
        if isinstance(self.rows, VecJet):
            rows, curvatures = self.rows.at(i), tuple(k.at(i) for k in self.curvatures)
        else:
            rows, curvatures = self.rows[i].copy(), tuple(float(k[i]) for k in self.curvatures)
        checks = [None if x is None else x[i].item()
                  for x in (self.closure_residual, self.orientation)]
        return Frame(rows, float(self.t[i]), curvatures, *checks)

    @property
    def value(self):
        """The frame of values of a jet frame."""
        return Frame(self.rows.value, self.t, tuple(k.value for k in self.curvatures),
                     self.closure_residual, self.orientation)


def _family_gates(metric, D, scale, ts):
    """Local evidence that the curve is a pseudo-arc family member on the grid
    ``ts``, read off the Gram of its first three derivatives ``D`` (m, 3, n)
    against ``scale``, one plus their largest norm at each point."""
    gate = scale * scale
    G = metric._gram(D)
    # identity by identity, then point by point, as a loop would check them
    vals = G[:, _NULL_CHAIN_ROWS, _NULL_CHAIN_COLS].T
    m = len(ts)
    require((np.abs(vals) <= NULL_CHAIN_GATE * gate).ravel(), lambda j: FamilyError(
        f"null-chain identity {_NULL_CHAIN[j // m]} = {vals.flat[j]:.3e} violated at "
        f"t={ts[j % m]}; curve is not in the supported family"))
    w3 = G[:, 2, 2]
    require(np.abs(w3 - 1.0) <= PSEUDO_ARC_GATE * gate, lambda j: FamilyError(
        f"<a''',a'''> = {w3[j]:.6e} at t={ts[j]}: curve is not pseudo-arc parametrized"))


def frame_grid(curve, ts, extra_order=0):
    """Cartan frames on a grid of parameters as one jet :class:`Frame`, rows
    and curvatures batched: one pass over the grid for each extraction step.

    The curve is read to order n + 2 + e, e = ``extra_order`` >= -1; the rows
    come out at order 2 + e and k_c at order n - 1 + e - c, so e = 0 serves
    rows to order 2, and a reader that differentiates the frame or the
    curvatures further asks for more.  e = -1 gives rows at order 1 and still
    the closure residual, from one curve order fewer.  Only the evolute asks
    for it: in dimension six it reads W4 and k3 to order 1, and there the
    shorter series change no bit it reads (k1's top coefficient alone moves).
    In higher dimensions they round the last rows, the higher curvatures and
    the closure residual differently in their last bits, so other readers
    keep e >= 0.  The recursion runs on coefficient
    arrays, calling the series kernels the jet operators call, with each sum
    truncated to the shorter series; jets are built around the result only.
    A failing gate raises for the first point that fails it; wrap the call
    in :func:`pointwise_order` for the error a loop over the grid would meet
    first.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not ts.size:
        raise InputError(f"a frame grid is a non-empty 1-D array of parameters, "
                         f"not one of shape {ts.shape}")
    n = _check_curve(curve).dimension
    metric = _shared_metric(n)
    A = curve.vec_jets(ts, n + 2 + extra_order)
    derivs, norms = _derivative_rows(A, n)
    _family_gates(metric, derivs[:, :3], 1.0 + norms[:, :3].max(axis=1), A.base)

    # rows (K+1, m, n) and curvatures (K+1, m) as coefficient arrays
    vectors = {"alpha": A.coeffs}
    k = [None]  # k[c] is the series of k_c; k_0 = 1 scales nothing
    for row, terms in frenet_system(n):
        v = _weighted(vectors[row])[1:]  # d/dt
        if row == "W3":    # N2 = W3' + k1 L2 is null
            k.append(metric.inner_series(v, v) * 0.5)
        elif row == "N2":  # N1 = N2' - k2 L1 + k1 W3 is null
            vv, k11 = metric.inner_series(v, v), _mul(k[1], k[1])
            size = min(len(vv), len(k11))
            k.append((vv[:size] - k11[:size]) * 0.5)
        new = None
        for target, c, sign in terms:
            if target not in vectors:
                new = target, c
            else:
                term = vectors[target] if c == 0 else _scale(k[c], vectors[target])
                # truncated to the shorter series, as jet + and - combine them
                size = min(len(v), len(term))
                v = v[:size] - term[:size] if sign > 0 else v[:size] + term[:size]
        if new is None:  # the last row: what is left is the closure residual
            closure_residual = _row_norms(v[0])
            break
        target, c = new
        if c:
            vv = metric.inner_series(v, v)
            floor = CURVATURE_FLOOR * (1.0 + norms.max(axis=1))
            require(vv[0] > floor * floor, lambda j: FrameDegeneracyError(
                f"normalizer <v,v> = {vv[0, j]:.3e} at curvature index {c}: "
                f"frame continuation aborted at t={ts[j]}", index=c,
                partial=_jet_frame(A.base, ts, vectors, k).at(j)))
            k.append(_sqrt(vv))
            v = _scale(_div(_constant(1.0, k[c]), k[c]), v)
        vectors[target] = v

    frame = _jet_frame(A.base, ts, vectors, k)
    # the pairings fix |det| of the frame: its sign suffices (a NaN fails below)
    sign_frame = np.sign(np.linalg.det(frame.rows.coeffs[0, :, 1:]))
    sign_derivs = metric._orientations(derivs, norms)
    require(sign_frame == sign_derivs, lambda j: DegenerateBasisError(
        f"frame orientation {sign_frame[j]:g} disagrees with the derivative "
        f"basis orientation {sign_derivs[j]} at t={ts[j]}"))
    return Frame(frame.rows, ts, frame.curvatures, closure_residual, sign_derivs)


def _jet_frame(base, ts, vectors, k):
    """The jet :class:`Frame` of the rows found so far, stacked in
    :func:`frenet_system` order at the order of the last one, and of the
    curvature series ``k[1:]``."""
    rows = list(vectors.values())
    size = len(rows[-1])
    stacked = np.concatenate([v[:size, ..., None, :] for v in rows], axis=-2)
    return Frame(VecJet(base, stacked), ts, tuple(Jet(base, c) for c in k[1:]))


def frame_jets(curve, t, extra_order=0):
    """Cartan frame at t with every vector and curvature carried as a jet:
    :func:`frame_grid` on the one-point grid [t]."""
    return frame_grid(curve, np.array([float(t)]), extra_order).at(0)


def cartan_frame_at(curve, t):
    """Frame vectors and curvature values at t: :func:`frame_grid` on the
    one-point grid [t], read at order 0, at index 0."""
    f = frame_grid(curve, np.array([float(t)]))
    return Frame(f.rows.coeffs[0, 0].copy(), float(f.t[0]),
                 tuple(float(k.coeffs[0, 0]) for k in f.curvatures),
                 f.closure_residual[0].item(), f.orientation[0].item())


def cartan_frames(curve, grid):
    """:func:`frame_grid` on a grid as one batched jet :class:`Frame`,
    raising the error a loop over the grid would meet first."""
    return pointwise_order(lambda ts: frame_grid(curve, ts), grid)


# ---------------------------------------------------------------------------
# Residual verification
# ---------------------------------------------------------------------------

class FrenetResidualReport(Record):
    """Max |LHS - RHS| per Frenet equation over a grid."""

    per_equation: dict[str, float]
    overall: float
    grid: tuple[float, ...]


def _stencil_derivative(samples, h):
    """5-point finite-difference d/dt along axis 0 of uniformly spaced samples."""
    y = np.asarray(samples)
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)
    # one-sided 5-point stencils at the edges, same h^4 accuracy
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * h)
    d[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * h)
    return d


def _stencil_grid(grid):
    """``grid`` as floats, if the residual stencils can run on it: a 1-D grid
    of at least 7 points, uniformly spaced with a nonzero step."""
    try:
        grid = np.asarray(grid, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"a residual grid is a 1-D sequence of numbers: {exc}") from None
    if grid.ndim != 1 or len(grid) < 7:
        raise InputError("residual grid needs at least 7 points")
    steps = np.diff(grid)
    h = steps[0]
    require(np.abs(steps - h) <= 1e-9 * abs(h),
            lambda j: InputError("residual grid must be uniformly spaced"))
    if h == 0.0:
        raise InputError("residual grid step is zero: its points must be distinct")
    return grid


def frenet_residuals(curve, grid):
    """Residuals of every Frenet equation, frame derivatives by 5-point stencil.

    The grid must be uniform with at least 7 points and a nonzero step; it is
    checked before any frame is extracted.  Left sides differentiate the
    sampled frame fields numerically; right sides combine the sampled frame
    with the extracted curvature values, so the report is an end-to-end
    consistency check rather than a jet identity.
    """
    grid = _stencil_grid(grid)
    return stencil_residuals(cartan_frames(curve, grid).value)


def stencil_residuals(frame):
    """:func:`frenet_residuals` from a frame of values already sampled on its
    grid ``frame.t``, which the same rule refuses unless it is uniform with
    at least 7 points and a nonzero step."""
    grid, rows = _stencil_grid(frame.t), frame.rows
    system = frenet_system(rows.shape[-1])
    index = {row: i for i, (row, _) in enumerate(system)}
    lhs = _stencil_derivative(rows, grid[1] - grid[0])
    k = [None] + [c[:, None] for c in frame.curvatures]
    per_equation = {}
    for i, (row, terms) in enumerate(system):
        rhs, text = 0.0, []
        for target, c, sign in terms:
            term = rows[:, index[target]] if c == 0 else k[c] * rows[:, index[target]]
            rhs = rhs + term if sign > 0 else rhs - term
            text += ["+" if sign > 0 else "-", f"k{c} {target}" if c else target]
        label = f"{row}' = " + ("" if text[0] == "+" else "-") + " ".join(text[1:])
        per_equation[label] = float(np.max(np.abs(lhs[:, i] - rhs)))
    overall = max(per_equation.values())
    return FrenetResidualReport(per_equation, overall, tuple(grid))
