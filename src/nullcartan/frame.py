"""Cartan frame extraction and Frenet-system residual verification.

For a pseudo-arc-parametrized curve in the family {0,1,2,2,1,0,...,0} the
frame starts from L1 = alpha', L2 = alpha'', W3 = alpha''' and continues with
the normalizations <L1,N1> = 1, <L2,N2> = -1, null N1/N2, orthonormal W's:

    k1 = <W3', W3'>/2             N2 = W3' + k1 L2
    k2 = (<N2', N2'> - k1^2)/2    N1 = N2' - k2 L1 + k1 W3
    u  = N1' - k2 L2              k3 = |u|,  W4 = u/k3          (n >= 6)
    v4 = W4' + k3 L1              k4 = |v4|, W5 = v4/k4         (n >= 7)
    vi = Wi' + k_{i-1} W_{i-1}    ki = |vi|, W_{i+1} = vi/ki    (5 <= i <= n-3)

All frame derivatives ride on jets of the curve one order higher than the
vectors they feed, never on numeric differencing.  Normalizer curvatures come
out positive, which automatically matches the orientation of
(L1,L2,W3,N2,N1,W4,...) to that of (alpha',...,alpha^(n)); the orientation is
still checked and an ambiguous determinant fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import _check_in_domain, as_vec_jets, points_on, pointwise_order
from .errors import DegenerateBasisError, FamilyError, FrameDegeneracyError, InputError
from .expr import Jet, VecJet
from .metric import PseudoMetric

__all__ = [
    "CartanFrame",
    "FrameJets",
    "FrenetResidualReport",
    "cartan_frame_at",
    "cartan_frames",
    "frame_grid",
    "frame_jets",
    "frenet_residuals",
]

NULL_CHAIN_GATE = 1e-6
PSEUDO_ARC_GATE = 1e-6
CURVATURE_FLOOR = 1e-10


@dataclass(frozen=True)
class CartanFrame:
    """Frame vectors and curvature values at one parameter value."""

    t: float
    L1: np.ndarray
    L2: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    W: tuple[np.ndarray, ...]
    curvatures: tuple[float, ...]
    closure_residual: float
    orientation: int

    @property
    def dimension(self):
        return len(self.L1)

    def basis(self):
        """Frame rows in the orientation order (L1, L2, W3, N2, N1, W4, ...)."""
        rows = [self.L1, self.L2, self.W[0], self.N2, self.N1]
        rows.extend(self.W[1:])
        return np.stack(rows)


@dataclass(frozen=True, eq=False)
class FrameJets:
    """Frame vectors and curvatures as jets; feeds the constructions.

    On a grid ``t``, ``closure_residual`` and ``orientation`` are arrays and
    every jet is batched; :meth:`at` picks out one grid point.
    """

    t: float | np.ndarray
    L1: VecJet
    L2: VecJet
    N1: VecJet
    N2: VecJet
    W: tuple[VecJet, ...]
    curvatures: tuple[Jet, ...]
    closure_residual: float | np.ndarray
    orientation: int | np.ndarray

    def at(self, i):
        return FrameJets(
            float(self.t[i]), self.L1.at(i), self.L2.at(i), self.N1.at(i),
            self.N2.at(i), tuple(w.at(i) for w in self.W),
            tuple(k.at(i) for k in self.curvatures),
            float(self.closure_residual[i]), int(self.orientation[i]))

    def to_frame(self):
        return CartanFrame(
            self.t, self.L1.value, self.L2.value, self.N1.value, self.N2.value,
            tuple(w.value for w in self.W),
            tuple(k.value for k in self.curvatures),
            self.closure_residual, self.orientation)


def _first(bad):
    return int(np.argmax(bad))


def _family_gates(metric, A, tol):
    """Local evidence that the curve is a pseudo-arc family member on the grid."""
    d1 = A.differentiate()
    d2 = d1.differentiate()
    d3 = d2.differentiate()
    d1, d2, d3 = (d.truncate(0) for d in (d1, d2, d3))
    scale = 1.0 + np.max([np.linalg.norm(d.value, axis=-1) for d in (d1, d2, d3)], axis=0)
    gate = scale * scale
    pairs = {
        "<a',a'>": metric.inner_jet(d1, d1).value,
        "<a',a''>": metric.inner_jet(d1, d2).value,
        "<a'',a''>": metric.inner_jet(d2, d2).value,
        "<a',a'''>": metric.inner_jet(d1, d3).value,
        "<a'',a'''>": metric.inner_jet(d2, d3).value,
    }
    for name, val in pairs.items():
        bad = np.abs(val) > NULL_CHAIN_GATE * gate
        if np.any(bad):
            j = _first(bad)
            raise FamilyError(
                f"null-chain identity {name} = {val[j]:.3e} violated at t={A.base[j]}; "
                "curve is not in the supported family")
    w3 = metric.inner_jet(d3, d3).value
    bad = np.abs(w3 - 1.0) > PSEUDO_ARC_GATE * gate
    if np.any(bad):
        j = _first(bad)
        raise FamilyError(
            f"<a''',a'''> = {w3[j]:.6e} at t={A.base[j]}: curve is not "
            "pseudo-arc parametrized")


def frame_grid(curve, ts, extra_order=0, tol=1e-9, force=False):
    """Cartan frames on a grid of parameters, every vector and curvature a
    batched jet: one pass over the grid for each step of the extraction.

    ``extra_order`` deepens the jets beyond the n+2 needed for extraction and
    the closure residual (constructions differentiate curvatures further).
    ``force`` skips the family/pseudo-arc gates; extraction then reports
    whatever the formulas produce, which is only meaningful inside tests that
    probe non-family offsets.  A failing gate raises for the first point that
    fails it; wrap the call in :func:`pointwise_order` for the error a loop
    over the grid would meet first.
    """
    ts = np.asarray(ts, dtype=float)
    n = curve.dimension
    metric = PseudoMetric(n)
    K = n + 2 + extra_order
    A = as_vec_jets(curve, ts, K)
    if not force:
        _family_gates(metric, A, tol)

    L1 = A.differentiate()
    L2 = L1.differentiate()
    W3 = L2.differentiate()
    W3p = W3.differentiate()
    k1 = metric.inner_jet(W3p, W3p) * 0.5
    N2 = W3p + L2.scale(k1)
    N2p = N2.differentiate()
    k2 = (metric.inner_jet(N2p, N2p) - k1 * k1) * 0.5
    N1 = N2p - L1.scale(k2) + W3.scale(k1)

    derivs = np.stack([A.derivative_value(k) for k in range(1, n + 1)], axis=1)
    scale = 1.0 + np.max(np.linalg.norm(derivs, axis=-1), axis=1)
    floor = CURVATURE_FLOOR * scale

    curvatures = [k1, k2]
    Ws = [W3]

    if n >= 6:
        for i in range(3, n - 2):
            if i == 3:
                v = N1.differentiate() - L2.scale(k2)
            elif i == 4:
                v = Ws[1].differentiate() + L1.scale(curvatures[2])
            else:
                v = Ws[i - 3].differentiate() + Ws[i - 4].scale(curvatures[i - 2])
            vv = metric.inner_jet(v, v)
            bad = vv.value <= floor * floor
            if np.any(bad):
                j = _first(bad)
                partial = FrameJets(ts, L1, L2, N1, N2, tuple(Ws), tuple(curvatures),
                                    np.full(len(ts), np.nan), np.zeros(len(ts), int))
                raise FrameDegeneracyError(
                    f"normalizer <v,v> = {vv.value[j]:.3e} at curvature index {i}: "
                    f"frame continuation aborted at t={ts[j]}",
                    index=i, partial=partial.at(j))
            ki = vv.sqrt()
            curvatures.append(ki)
            Ws.append(v.scale(1.0 / ki))

    # closure equation residual: the last Frenet equation has no new vector
    if n == 5:
        closure = N1.differentiate() - L2.scale(k2)
    elif n == 6:
        closure = Ws[1].differentiate() + L1.scale(curvatures[2])
    else:
        closure = Ws[-1].differentiate() + Ws[-2].scale(curvatures[-1])
    closure_residual = np.linalg.norm(closure.value, axis=-1)

    frame_rows = np.stack([L1.value, L2.value, W3.value, N2.value, N1.value]
                          + [w.value for w in Ws[1:]], axis=1)
    sign_frame = metric.orientation_signs(frame_rows, strict=not force)
    sign_derivs = metric.orientation_signs(derivs, strict=not force)
    if force:
        sign_frame = np.where(sign_derivs == 0, 0, sign_frame)
    else:
        bad = sign_frame != sign_derivs
        if np.any(bad):
            j = _first(bad)
            raise DegenerateBasisError(
                f"frame orientation {sign_frame[j]} disagrees with the derivative "
                f"basis orientation {sign_derivs[j]} at t={ts[j]}")

    return FrameJets(ts, L1, L2, N1, N2, tuple(Ws), tuple(curvatures),
                     closure_residual, sign_frame)


def frame_jets(curve, t, extra_order=0, tol=1e-9, force=False):
    """Cartan frame at t with every vector and curvature carried as a jet:
    :func:`frame_grid` on the one-point grid [t]."""
    return frame_grid(curve, np.array([float(t)]), extra_order, tol, force).at(0)


def cartan_frame_at(curve, t, tol=1e-9):
    """Frame vectors L1, L2, N1, N2, W3..W_{n-2} and curvatures k1..k_{n-3} at t."""
    _check_in_domain(t, curve.domain)
    return frame_jets(curve, t, tol=tol).to_frame()


def cartan_frames(curve, grid, tol=1e-9):
    """:func:`cartan_frame_at` on a grid as one batched :class:`FrameJets`,
    raising the error a loop over the grid would meet first."""

    def frames(ts):
        _check_in_domain(ts, curve.domain)
        return frame_grid(curve, ts, tol=tol)

    return pointwise_order(frames, grid)


# ---------------------------------------------------------------------------
# Residual verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrenetResidualReport:
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


def frenet_residuals(curve, grid):
    """Residuals of every Frenet equation, frame derivatives by 5-point stencil.

    The grid must be uniform with at least 7 points.  Left sides differentiate
    the sampled frame fields numerically; right sides combine the sampled
    frame with the extracted curvature values, so the report is an
    end-to-end consistency check rather than a jet identity.
    """
    grid = np.asarray([float(t) for t in grid])
    if len(grid) < 7:
        raise InputError("residual grid needs at least 7 points")
    steps = np.diff(grid)
    h = steps[0]
    if np.any(np.abs(steps - h) > 1e-9 * abs(h)):
        raise InputError("residual grid must be uniformly spaced")

    frames = cartan_frames(curve, grid)
    n = curve.dimension
    points = pointwise_order(lambda ts: points_on(curve, ts), grid)
    fields = {"L1": frames.L1.value, "L2": frames.L2.value,
              "N1": frames.N1.value, "N2": frames.N2.value}
    for j in range(n - 4):
        fields[f"W{j + 3}"] = frames.W[j].value
    ks = np.stack([k.value for k in frames.curvatures], axis=1)  # (m, n-3)

    dpoints = _stencil_derivative(points, h)
    dfields = {name: _stencil_derivative(arr, h) for name, arr in fields.items()}

    def k(i):
        return ks[:, i - 1][:, None]

    rhs = {
        "alpha' = L1": (dpoints, fields["L1"]),
        "L1' = L2": (dfields["L1"], fields["L2"]),
        "L2' = W3": (dfields["L2"], fields["W3"]),
        "W3' = -k1 L2 + N2": (dfields["W3"], -k(1) * fields["L2"] + fields["N2"]),
        "N2' = k2 L1 + N1 - k1 W3":
            (dfields["N2"], k(2) * fields["L1"] + fields["N1"] - k(1) * fields["W3"]),
    }
    if n == 5:
        rhs["N1' = k2 L2"] = (dfields["N1"], k(2) * fields["L2"])
    else:
        rhs["N1' = k2 L2 + k3 W4"] = (dfields["N1"],
                                      k(2) * fields["L2"] + k(3) * fields["W4"])
        for i in range(4, n - 1):
            name = f"W{i}'"
            lhs = dfields[f"W{i}"]
            if i == 4:
                expr = -k(3) * fields["L1"]
                label = f"{name} = -k3 L1"
                if n >= 7:
                    expr = expr + k(4) * fields["W5"]
                    label = f"{name} = -k3 L1 + k4 W5"
            else:
                expr = -k(i - 1) * fields[f"W{i - 1}"]
                label = f"{name} = -k{i - 1} W{i - 1}"
                if i + 1 <= n - 2:
                    expr = expr + k(i) * fields[f"W{i + 1}"]
                    label += f" + k{i} W{i + 1}"
            rhs[label] = (lhs, expr)

    per_equation = {name: float(np.max(np.abs(lhs - rhs_)))
                    for name, (lhs, rhs_) in rhs.items()}
    overall = max(per_equation.values())
    return FrenetResidualReport(per_equation, overall, tuple(grid))
