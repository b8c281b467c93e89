"""Theorem-level constructions and the Frenet-system curve synthesizer.

Covers the Bertrand-mate construction and its k1 = k2 = 0 gate, the
pseudo-spherical test built on the a_i recursion, the evolute/involute
correspondence in dimension six, and ``synthesize``, which integrates the
full first-order Frenet system (curve plus frame) with classical RK4 from a
frame that satisfies the pairing relations exactly; a state is the ``rows``
of a :class:`Frame`, in :func:`frenet_system` order.  The system is linear,
state' = A(t) state, so each RK4 step is a propagator I + D, and the states
are prefix products of the propagators applied to the initial state, formed
by a blocked scan over the increments D.  Synthesized curves are
pseudo-arc parametrized by construction and expose exact derivatives of any
order through the Taylor recurrence of the same linear system, which makes
them the test oracle for everything else here.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .curve import (
    DEFAULT_CLASSIFY_POINTS,
    TABLE_BLOCK,
    ArcLengthCurve,
    ReparametrizedCurve,
    SampledCurve,
    SplineCurve,
    _BatchedCurve,
    _check_in_domain,
    _derivative_rows,
    _parameter_grid,
    _read_only,
    chebyshev_grid,
    pointwise_order,
    require_family,
)
from .errors import (
    DimensionMismatchError,
    HypothesisError,
    InputError,
    SingularRecursionError,
    StepSizeError,
    require,
)
from .expr import Expr, Jet, Program, VecJet, parse
from .frame import Frame, frame_grid, frenet_system
from .metric import DEFAULT_TOL, _row_norms, _shared_metric, _span_qr
from .record import Record

__all__ = [
    "CurvatureProfile",
    "standard_initial_frame",
    "FrenetCurve",
    "synthesize",
    "OffsetCurve",
    "BertrandVerdict",
    "PairReport",
    "BertrandMateResult",
    "bertrand_check",
    "bertrand_mate",
    "sphere_coefficients",
    "SphereReport",
    "pseudo_spherical_test",
    "EvoluteCurve",
    "EvoluteResult",
    "evolute",
    "InvoluteCurve",
    "InvoluteResult",
    "involute",
    "InvoluteFrameReport",
    "involute_frame_check",
]

# |k| below this counts as a vanishing curvature
MIN_CURVATURE = 1e-8
# the involute correspondence's gates on |<c',c'> - 1| and |<c'',c''>|
INVOLUTE_GATE = 1e-6
# integration step of a synthesis that names none
DEFAULT_STEP = 1e-3
# defaults of the synthesis Gram-defect gate, the Bertrand curvature gate,
# the sphere's radius and center constancy, and the evolute and involute grids
DEFAULT_DEFECT_LIMIT = 1e-4
DEFAULT_BERTRAND_TOL = 1e-8
DEFAULT_SPHERE_TOL = 1e-5
DEFAULT_EVOLUTE_POINTS = 33
# largest synthesis state table, in floats (nodes * (n + 1) * n): 256 MiB
MAX_TABLE_FLOATS = 2**25
# steps per chunk of the propagator scan (:func:`_propagate`)
SCAN_CHUNK = 16


# ---------------------------------------------------------------------------
# Curvature profiles and initial frames
# ---------------------------------------------------------------------------

class CurvatureProfile(Record, eq=False):
    """Prescribed curvature functions k1..k_{n-3} in the pseudo-arc parameter."""

    dimension: int
    curvatures: tuple[Expr, ...]
    parameter: str = "t"

    def __post_init__(self):
        if self.dimension < 5:
            raise DimensionMismatchError("curvature profiles need dimension >= 5")
        if len(self.curvatures) != self.dimension - 3:
            raise DimensionMismatchError(
                f"dimension {self.dimension} takes {self.dimension - 3} curvature "
                f"functions, got {len(self.curvatures)}")

    @classmethod
    def from_strings(cls, dimension, texts, parameter="t"):
        return cls(dimension, tuple(parse(t, parameter) for t in texts), parameter)

    @cached_property
    def _program(self):
        return Program(self.curvatures)

    def jets(self, t, order):
        """Curvature jets at t, a float or an array of points (batched jets)."""
        return self._program.jets(t, order)

    def values(self, t):
        """Curvature values, shape (n-3,) at a float t or (m, n-3) on a grid."""
        param = Jet.variable(t, 0)
        return np.stack(self._program.run(param.coeffs), axis=-1)[0]


@lru_cache(maxsize=32)
def _expected_frame_gram(n):
    """<F_i, F_j> of the frame rows: the Gram of the standard initial frame,
    which meets every pairing relation exactly.  Built once per n, read-only:
    synthesis checks every block of its table against it."""
    gram = _shared_metric(n).gram(standard_initial_frame(n).rows[1:])
    gram.flags.writeable = False
    return gram


def _gram_defect(state_matrix, metric):
    """Max |<F_i, F_j> - E_ij| of one state (n+1, n), or per state of a stack."""
    G = metric.gram(state_matrix[..., 1:, :])
    G -= _expected_frame_gram(metric.dimension)
    return np.max(np.abs(G, out=G), axis=(-2, -1))


def standard_initial_frame(n, alpha=None):
    """Frame satisfying every pairing relation exactly in the standard metric.

    L1 = e1+e3, L2 = e2+e4, W3 = e5, N2 = (e2-e4)/2, N1 = (-e1+e3)/2 and
    W4, W5, ... = e6, e7, ...
    """
    e = np.eye(n)
    alpha = np.zeros(n) if alpha is None else np.asarray(alpha, dtype=float)
    return Frame(np.stack([alpha, e[0] + e[2], e[1] + e[3], e[4], (e[1] - e[3]) / 2,
                           (-e[0] + e[2]) / 2, *e[5:]]))


# ---------------------------------------------------------------------------
# Frenet-system synthesis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _frenet_couplings(n, transposed=False):
    """:func:`frenet_system` as couplings of the state rows, which follow it:
    P[c, i, j] = sign when row i' has the term sign * k_c * row j, so
    state' = (sum_c k_c P[c]) state with k_0 = 1; each P[c]^T if ``transposed``.
    Read-only, once per n.  An entry has at most one coupling: GEMMs are exact."""
    system = frenet_system(n)
    index = {row: i for i, (row, _) in enumerate(system)}
    P = np.zeros((n - 2, n + 1, n + 1))
    for i, (row, terms) in enumerate(system):
        for target, c, sign in terms:
            P[(c, index[target], i) if transposed else (c, i, index[target])] = sign
    P.flags.writeable = False
    return P


def _rk4_increments(A0, Am, A1, h):
    """Classical RK4 of the linear system y' = A y as propagators: one step of
    length h maps y to y + D y, from the generators at t, t + h/2 and t + h
    (stacks of matrices over the steps, h a float or one length per step).
    q2 = Am + h/2 Am A0, q3 = Am + h/2 Am q2, q4 = A1 + h A1 q3 and
    D = h/6 (A0 + 2 q2 + 2 q3 + q4) run in that order as in-place ``*=`` and
    ``+=`` on three matmul results: IEEE + and * commute, so the bits match."""
    h = np.asarray(h)[..., None, None]
    q = [A0]
    for A, s in ((Am, h / 2), (Am, h / 2), (A1, h)):
        q.append(A @ q[-1])
        q[-1] *= s
        q[-1] += A
    q2, q3, q4 = q[1:]
    q2 *= 2
    q2 += A0
    q3 *= 2
    q2 += q3
    q2 += q4
    q2 *= h / 6
    return q2


def _propagate(S0, E, out):
    """States S_1..S_m of S_{i+1} = S_i + D_i S_i from S_0, written to the
    first m of the width * chunks rows of ``out``, by a blocked prefix scan
    (Blelloch 1990) over increments stored position-major: E[j, c] of E
    (width, chunks, r, r) is D_{c * width + j}, zero past D_{m-1}.

    Each propagator is kept as its difference E from the identity, so
    products combine as E_ab = E_b + E_a + E_b E_a and apply as S + E S:
    adding the small increments to I first would round them off.  E is
    overwritten: each scan position is one ``matmul(out=)`` and two in-place
    adds on a contiguous (chunks, r, r) slab.  The chunk totals carry the
    start state from chunk to chunk, and one matmul and add apply the prefixes
    to the start states in ``out``.  IEEE + commutes, so the bits are those
    of the formulas written out.
    """
    width, chunks = E.shape[:2]
    product = np.empty(E.shape[1:])
    for j in range(1, width):
        np.matmul(E[j], E[j - 1], out=product)
        product += E[j - 1]
        E[j] += product
    starts = np.repeat(S0[None], chunks, axis=0)
    for c in range(chunks - 1):
        np.matmul(E[-1, c], starts[c], out=starts[c + 1])
        starts[c + 1] += starts[c]
    out = out.reshape((chunks, width) + S0.shape).swapaxes(0, 1)
    np.matmul(E, starts, out=out)
    out += starts


class FrenetCurve(_BatchedCurve):
    """Curve produced by integrating the Frenet system with prescribed curvatures.

    Node i of the integration table sits at a + i * step, and the last node
    is b itself.  The table is built in blocks of TABLE_BLOCK steps: one
    curvature evaluation and one GEMM give a block's generators, in-place RK4
    turns them into the propagators of a blocked prefix scan (:func:`_propagate`)
    that writes the table rows in place, and the Gram gate checks the block
    before the next one is evaluated.  Every kernel rounds each entry as its
    formulas written out would, so the states are theirs bit for bit.
    Derivatives of any order are exact given the stored state:
    the Taylor coefficients of the state follow from S' = A(t) S and the
    curvature jets, so only the RK4 error of the state samples enters.
    States served to callers are read-only; the integration table cannot be
    changed through them.
    """

    def __init__(self, profile, interval, step=DEFAULT_STEP, initial=None,
                 defect_limit=DEFAULT_DEFECT_LIMIT):
        a, b = float(interval[0]), float(interval[1])
        if not -math.inf < a < b < math.inf:
            raise InputError("interval must be finite and satisfy a < b")
        # four float spacings per step keep the nodes a + i h increasing
        if not 4 * np.spacing(max(abs(a), abs(b))) <= step < math.inf:
            raise InputError(f"step must be finite and resolvable on [{a}, {b}], got {step}")
        if not defect_limit > 0:
            raise InputError(f"defect_limit must be positive, got {defect_limit}")
        n = profile.dimension
        self.profile = profile
        self.dimension = n
        self.domain = (a, b)
        self.step = float(step)
        self._metric = _shared_metric(n)
        state = np.array((initial or standard_initial_frame(n)).rows, dtype=float)
        if state.shape != (n + 1, n):
            raise DimensionMismatchError(
                f"initial state must be ({n + 1}, {n}), got {state.shape}")
        nodes = math.ceil((b - a) / step - 1e-12) + 1
        if nodes * (n + 1) * n > MAX_TABLE_FLOATS:
            raise InputError(
                f"step {step} on [{a}, {b}] needs {nodes} nodes, a state table of "
                f"{nodes * (n + 1) * n} floats; the limit is {MAX_TABLE_FLOATS}")
        # nodes a + i h without accumulated drift; the last one is b itself
        ts = a + np.arange(nodes - 1) * self.step
        ts = np.append(ts[ts < b], b)
        hs = np.diff(ts)
        steps = len(hs)
        self._couplings = _frenet_couplings(n).reshape(n - 2, -1)
        # the rows past the table take the last block's padding scan slots
        states = np.empty((steps + SCAN_CHUNK, n + 1, n))
        states[0] = state
        self.max_gram_defect = 0.0
        # blocks of TABLE_BLOCK steps keep the propagator stack small and let
        # the Gram gate stop a run at the first block that breaks it, before
        # the curvatures of later blocks are evaluated.  An overflow reaches
        # the gate as a NaN or infinite defect, which fails
        # ``defect <= defect_limit``, so numpy need not warn about it.
        for i0 in range(0, steps, TABLE_BLOCK):
            i1 = min(i0 + TABLE_BLOCK, steps)
            m = i1 - i0
            # the block's RK4 stage times (step starts and midpoints) in time
            # order; stage s of scan slot (j, c) is stage 2 (c * width + j) + s,
            # and slots past the last step sit at its end, with h = 0
            stage_t = np.empty(2 * m + 1)
            stage_t[0::2] = ts[i0:i1 + 1]
            stage_t[1::2] = ts[i0:i1] + hs[i0:i1] / 2
            width = min(SCAN_CHUNK, m)
            stage = np.arange(2 * width + 1)[:, None] + np.arange(0, 2 * m, 2 * width)
            stage = np.minimum(stage, 2 * m)
            A = self._generators(pointwise_order(profile.values, stage_t)[stage])
            h = stage_t[stage[2::2]] - stage_t[stage[:-1:2]]
            with np.errstate(over="ignore", invalid="ignore"):
                D = _rk4_increments(A[:-1:2], A[1::2], A[2::2], h)
                _propagate(states[i0], D, states[i0 + 1:i0 + 1 + h.size])
                defects = _gram_defect(states[i0:i1 + 1], self._metric)
            require(defects <= defect_limit, lambda j: StepSizeError(
                f"frame Gram defect {defects[j]:.3e} at t={ts[i0 + j]:.6g} "
                f"exceeds {defect_limit:.1e}; halve the step (current {step})"))
            self.max_gram_defect = max(self.max_gram_defect, float(np.max(defects)))
        states.flags.writeable = False
        self._ts = ts
        self._states = states[:steps + 1]

    # -- integration ---------------------------------------------------------

    def _generators(self, k):
        """Generators A(t) of the linear Frenet system state' = A state, from
        curvature values ``k`` of shape (..., n-3): one exact GEMM of the
        values, a 1 prepended, against the flattened couplings."""
        ones = np.ones(k.shape[:-1] + (1,))
        A = np.concatenate((ones, k), axis=-1).reshape(-1, k.shape[-1] + 1) @ self._couplings
        return A.reshape(k.shape[:-1] + (self.dimension + 1,) * 2)

    def _rk4_step(self, t, state, h):
        """Classical RK4 step of length h from t (floats, or arrays of one
        shape over a stack of states), with the curvatures at t, t + h/2 and
        t + h evaluated in one call."""
        stage = np.concatenate((t, t + h / 2, t + h), axis=None)
        k = self.profile.values(stage).reshape((3,) + np.shape(t) + (-1,))
        D = _rk4_increments(*self._generators(k), h)
        return state + D @ state

    def _states_at(self, ts):
        """States (m, n+1, n) on a grid: table rows, or one RK4 step from the
        nearest node below, all off-node points in one batched step.  Array
        methods and ufuncs stand in for ``np.clip`` and ``np.flatnonzero``,
        whose Python wrappers cost more than a one-point query's arithmetic.
        The node below is at most the last one, so only a point within the
        domain slack below the first node needs its index raised to 0."""
        i = np.maximum(self._ts.searchsorted(ts, "right") - 1, 0)
        t0 = self._ts[i]
        states = self._states[i]
        off = (ts != t0).nonzero()[0]
        if len(off):
            states[off] = self._rk4_step(t0[off], states[off], ts[off] - t0[off])
        return states

    @lru_cache(maxsize=65536)
    def _state_at(self, t):
        state = self._states_at(np.array([t]))[0]
        state.flags.writeable = False
        return state

    def frame_state(self, t):
        """The synthesized frame at t, read-only."""
        _check_in_domain(t, self.domain)
        return Frame(self._state_at(float(t)), float(t))

    # -- curve surface --------------------------------------------------------

    def _chain_jets(self, ts, states, order):
        """Vector jets from states (m, n+1, n) by the Taylor recurrence of
        S' = A S, A = sum_c k_c P_c: S_{j+1} = sum_{i<=j} A_i S_{j-i} / (j+1),
        with A_i from the i-th curvature coefficients.  alpha' = L1, so
        alpha's coefficient j + 1 is row L1 of S_j over j + 1.  With the
        S_l^T side by side and the A_i^T stacked highest order first, each
        S_{j+1}^T is one batched matmul of two contiguous slices."""
        m, r, n = states.shape
        coeffs = np.empty((order + 1, m, n))
        coeffs[0] = states[:, 0]
        if order == 0:
            return VecJet(ts, coeffs)
        depth = max(order - 2, 0)
        k = np.zeros((m, depth + 1, len(self._couplings)))
        k[:, -1, 0] = 1.0
        for c, jet in enumerate(self.profile.jets(ts, depth), 1):
            k[:, :, c] = jet.coeffs[::-1].T
        P = _frenet_couplings(n, transposed=True).reshape(k.shape[-1], -1)
        AT = (k @ P).reshape(m, -1, r)  # A_depth^T, ..., A_0^T
        ST = np.empty((m, n, order, r))
        ST[:, :, 0] = states.swapaxes(1, 2)
        SF = ST.reshape(m, n, -1)
        for j in range(order - 1):
            ST[:, :, j + 1] = SF[:, :, :(j + 1) * r] @ AT[:, (depth - j) * r:] / (j + 1)
        coeffs[1:] = ST[:, :, :, 1].transpose(2, 0, 1)
        coeffs[1:] /= np.arange(1, order + 1)[:, None, None]
        return VecJet(ts, coeffs)

    def _vec_jets(self, ts, order):
        return self._chain_jets(ts, self._states_at(ts), order)

    # bound in the class body too: bench/spans.py wraps FrenetCurve.vec_jet there
    vec_jet = _BatchedCurve.vec_jet

    # -- export ----------------------------------------------------------------

    def frame_table(self, grid):
        """The synthesized frames on a grid, as one batched :class:`Frame`
        with the curvature values there."""
        def sample(ts):
            _check_in_domain(ts, self.domain)
            return self._states_at(ts), self.profile.values(ts)

        grid = _parameter_grid(grid)
        states, curvatures = pointwise_order(sample, grid)
        return Frame(states, grid, tuple(curvatures.T))


def synthesize(profile, interval, step=DEFAULT_STEP, initial=None,
               defect_limit=DEFAULT_DEFECT_LIMIT):
    """Integrate the Frenet system; raises StepSizeError past the defect budget."""
    return FrenetCurve(profile, interval, step, initial, defect_limit)


# ---------------------------------------------------------------------------
# Bertrand mates
# ---------------------------------------------------------------------------

class OffsetCurve(_BatchedCurve):
    """The normal offset alpha + mu * alpha''' of a pseudo-arc family curve."""

    def __init__(self, base, mu):
        self.base = base
        self.mu = float(mu)
        self.dimension = base.dimension
        self.domain = base.domain

    def _vec_jets(self, ts, order):
        A = self.base.vec_jets(ts, order + 3)
        a3 = A.differentiate().differentiate().differentiate()
        return A.truncate(order) + a3.scale(self.mu)


class BertrandVerdict(Record):
    verdict: bool
    max_k1: float
    max_k2: float
    grid: tuple[float, ...]
    tolerance: float


class PairReport(Record):
    """Correspondence and W3-line alignment between a curve and its offset."""

    grid: tuple[float, ...]
    sbar: tuple[float, ...]
    correspondence_offset: float | None  # sbar = s + offset when not None
    alignment_defect: float
    verdict: bool
    max_k1: float
    max_k2: float


class BertrandMateResult(Record):
    mate: OffsetCurve
    sampled: SampledCurve
    report: PairReport


def _bertrand_frames(curve, grid, tol):
    """Verdict of :func:`bertrand_check` plus the frames it was read from."""
    if curve.dimension != 5:
        raise HypothesisError("Bertrand theory here lives in dimension 5",
                              condition="dimension == 5")
    grid = require_family(curve, grid).grid
    frames = pointwise_order(lambda ts: frame_grid(curve, ts), grid)
    max_k1 = float(np.max(np.abs(frames.curvatures[0].value)))
    max_k2 = float(np.max(np.abs(frames.curvatures[1].value)))
    verdict = BertrandVerdict(max_k1 < tol and max_k2 < tol, max_k1, max_k2,
                              tuple(grid), tol)
    return verdict, frames


def bertrand_check(curve, grid=None, tol=DEFAULT_BERTRAND_TOL):
    """True iff the curvature maxima over the grid stay below ``tol``."""
    return _bertrand_frames(curve, grid, tol)[0]


def bertrand_mate(curve, mu, grid=None, tol=DEFAULT_BERTRAND_TOL, force=False):
    """Offset mate alpha + mu W3 with the W3-alignment report.

    Requires k1 = k2 = 0 within ``tol`` on the grid (else HypothesisError,
    with the BertrandVerdict as its ``evidence``); the correspondence is
    then the identity (pseudo-arc zero points matched), the mate is framed,
    and |W3bar -/+ W3| is reported.  With ``force`` the curvature gate is
    skipped and the offset's third pseudo-arc derivative is compared instead,
    which quantifies how badly a non-Bertrand curve fails the alignment.
    """
    if mu == 0.0:
        raise InputError("mu must be nonzero (the mate must be distinct)")
    if not math.isfinite(mu):
        raise InputError(f"mu must be finite, got {mu}")
    check, frames = _bertrand_frames(curve, grid, tol)
    grid = check.grid
    if not check.verdict and not force:
        raise HypothesisError(
            f"not a Bertrand curve: max|k1| = {check.max_k1:.3e}, "
            f"max|k2| = {check.max_k2:.3e} exceed tol {tol:.1e}",
            condition="k1 = k2 = 0", evidence=check)
    mate = OffsetCurve(curve, mu)
    w3 = frames.W[0].value
    if check.verdict:
        w3bar = pointwise_order(lambda ts: frame_grid(mate, ts).W[0].value, grid)
        sbars = grid
        offset = 0.0
    else:
        rep = ReparametrizedCurve(mate)

        def matched(ts):
            sbar = rep.pseudo_arc_of(ts)
            return sbar, rep.vec_jets(sbar, 3).derivative_value(3)

        sbars, w3bar = pointwise_order(matched, grid)
        offset = None
    defects = np.minimum(_row_norms(w3bar - w3), _row_norms(w3bar + w3))
    points = pointwise_order(lambda ts: mate.vec_jets(ts, 0).value, grid)
    sampled = SampledCurve(np.asarray(grid), points)
    report = PairReport(tuple(grid), tuple(sbars), offset, float(np.max(defects)),
                        check.verdict, check.max_k1, check.max_k2)
    return BertrandMateResult(mate, sampled, report)


# ---------------------------------------------------------------------------
# Pseudo-spherical test
# ---------------------------------------------------------------------------

def _sphere_coefficient_jets(kjets, n):
    """Jets of a_1..a_{n-4} from curvature jets k_1..k_{n-3}.

    a_1 = 0, a_2 = 1/k_3 and a_{i-1} = (a_{i-2}' + a_{i-3} k_{i-1}) / k_i for
    4 <= i <= n - 3; every division is guarded by ``MIN_CURVATURE``.
    """
    if n < 6:
        raise HypothesisError("the sphere recursion needs dimension >= 6",
                              condition="dimension >= 6")
    base = kjets[0].base
    order = kjets[0].order
    zero = Jet.constant(0.0, base, order)

    def guard(i):
        values = np.atleast_1d(kjets[i - 1].value)
        require(np.abs(values) >= MIN_CURVATURE, lambda j: SingularRecursionError(
            f"k{i} = {values[j]:.3e} vanishes at t={np.atleast_1d(base)[j]}", index=i))
        return kjets[i - 1]

    a = [zero, 1.0 / guard(3)]
    for i in range(4, n - 2):
        ki = guard(i)
        a.append((a[i - 3].differentiate() + a[i - 4] * kjets[i - 2]) / ki)
    return a


def sphere_coefficients(profile, t):
    """Values a_1..a_{n-4} of the sphere recursion for a curvature profile."""
    n = profile.dimension
    kjets = profile.jets(t, max(n, 4))
    return [a.value for a in _sphere_coefficient_jets(kjets, n)]


class SphereReport(Record):
    """Per-sample recursion values (read-only arrays) and the constancy verdict."""

    grid: tuple[float, ...]
    a_values: np.ndarray          # (m, n-4)
    radius_sq: np.ndarray         # (m,)
    centers: np.ndarray           # (m, n)
    is_spherical: bool
    radius: float | None
    center: np.ndarray | None
    last_coefficient_nonzero: bool
    max_radius_spread: float
    max_center_spread: float
    sphere_equation_residual: float
    tolerance: float


def pseudo_spherical_test(curve, grid=None, tol=DEFAULT_SPHERE_TOL):
    """Constancy test of sum a_i^2 and of the center alpha + sum a_i W_{i+2}.

    ``is_spherical`` demands both spreads below ``tol``; the sphere equation
    <alpha - center, alpha - center> = r^2 is then verified against the mean
    center and radius.  A vanishing k_{n-3} (below ``MIN_CURVATURE``)
    anywhere on the grid raises HypothesisError (the theorem does not
    apply), which keeps hypothesis failures distinct from negative verdicts.
    The spreads over one point are 0 whatever the curve, so a grid with
    fewer than two distinct points is an InputError once its points are read.
    """
    n = curve.dimension
    if n < 6:
        raise HypothesisError("the pseudo-sphere test needs dimension >= 6",
                              condition="dimension >= 6")
    if grid is None:
        grid = chebyshev_grid(curve.domain[0], curve.domain[1], DEFAULT_CLASSIFY_POINTS)
    grid = _parameter_grid(grid).tolist()
    metric = _shared_metric(n)

    def sample(ts):
        # k_c comes out at order n - 1 - c; the recursion reads k3 to order n - 6
        fj = frame_grid(curve, ts)
        k_last = fj.curvatures[-1].value
        require(np.abs(k_last) >= MIN_CURVATURE, lambda j: HypothesisError(
            f"k_{n - 3} = {k_last[j]:.3e} at t={ts[j]}: pseudo-sphere theorem "
            "hypothesis fails", condition=f"k_{n - 3} != 0", location=float(ts[j])))
        a_jets = _sphere_coefficient_jets(list(fj.curvatures), n)
        a_vals = np.stack([a.value for a in a_jets], axis=1)
        point = fj.alpha.value
        center = point.copy()
        for i in range(2, n - 3):
            center = center + a_vals[:, i - 1, None] * fj.W[i - 1].value
        return a_vals, point, center

    a_values, points, centers = pointwise_order(sample, grid)
    if len(set(grid)) < 2:
        raise InputError("the sphere verdict compares points: the grid needs at "
                         "least two distinct parameters")
    radius_sq = np.sum(a_values[:, 1:] ** 2, axis=1)
    max_radius_spread = float(radius_sq.max() - radius_sq.min())
    center_mean = centers.mean(axis=0)
    max_center_spread = float(np.max(np.abs(centers - center_mean)))
    is_spherical = max_radius_spread <= tol and max_center_spread <= tol
    last_nonzero = bool(np.min(np.abs(a_values[:, -1])) > tol)
    radius = center = None
    residual = float("nan")
    if is_spherical:
        r_sq = float(radius_sq.mean())
        diffs = points - center_mean
        residual = float(np.max(np.abs(metric.inner(diffs, diffs) - r_sq)))
        radius = math.sqrt(max(r_sq, 0.0))
        center = center_mean
    return SphereReport(tuple(grid), _read_only(a_values), _read_only(radius_sq),
                        _read_only(centers), is_spherical,
                        radius, center, last_nonzero, max_radius_spread,
                        max_center_spread, residual, tol)


# ---------------------------------------------------------------------------
# Evolute and involute
# ---------------------------------------------------------------------------

class EvoluteCurve(_BatchedCurve):
    """Centers of osculating spheres, alpha + (1/k3) W4, in dimension six.

    The curve that :func:`evolute` returns carries the frame pass of the base
    that it made on its grid, read-only, and answers jets of order <= 2 on
    that grid (the same floats, bit for bit) from it: the pass a fresh
    extraction would make there, with ``extra_order`` 0.  Any other query
    extracts frames.  An ``EvoluteCurve(base)`` built directly carries none.
    """

    def __init__(self, base):
        if base.dimension != 6:
            raise HypothesisError("the evolute construction lives in dimension 6",
                                  condition="dimension == 6")
        self.base = base
        self.dimension = 6
        self.domain = base.domain
        self._frames = None  # (grid, frame pass) set by evolute()

    def _hold_frames(self, ts, fj):
        """Keep the frame pass ``fj`` of the base on the grid ``ts``, read-only."""
        for array in (fj.rows.coeffs, fj.closure_residual, fj.orientation,
                      *(k.coeffs for k in fj.curvatures)):
            array.flags.writeable = False
        self._frames = _read_only(ts), fj

    def _vec_jets(self, ts, order):
        # W4 and k3 come out of frame_grid at order 2 + extra
        extra = max(0, order - 2)
        if extra == 0 and self._frames is not None:
            grid, fj = self._frames
            if ts.shape == grid.shape and ts.tobytes() == grid.tobytes():
                return VecJet(ts, _evolute_jets(fj, order).coeffs)
        return _evolute_jets(frame_grid(self.base, ts, extra_order=extra), order)

    @lru_cache(maxsize=4096)
    def vec_jet(self, t, order):
        # every caller shares the cached jet, so it is read-only
        jet = super().vec_jet(t, order)
        jet.coeffs.flags.writeable = False
        return jet


def _evolute_jets(fj, order):
    """alpha + W4 / k3 to ``order`` from frame jets of the base curve whose
    W4 and k3 reach at least that order."""
    recip = 1.0 / fj.curvatures[2].truncate(order)
    return fj.alpha.truncate(order) + fj.W[1].truncate(order).scale(recip)


class EvoluteResult(Record):
    curve: EvoluteCurve
    sampled: SampledCurve
    grid: tuple[float, ...]
    speed_defect: float        # max |<E',E'> - ((1/k3)')^2|
    min_abs_slope: float       # min |(1/k3)'| seen on the grid


def evolute(curve, grid=None, min_slope=1e-8):
    """Evolute of a family curve in dimension six, certified spacelike.

    Refuses with the grid location when |k3| drops below ``MIN_CURVATURE``
    or |(1/k3)'| below ``min_slope`` (a constant k3 has no evolute in this
    sense), and a ``min_slope`` that is not finite and positive, or a grid
    that is not a non-empty 1-D sequence of numbers, with InputError before
    any frame is extracted.  The returned curve carries this one frame pass
    on the grid (see :class:`EvoluteCurve`), so the round trip's involute on
    the same grid reads the base's frames there without extracting them
    again.
    """
    if not 0.0 < min_slope < math.inf:
        raise InputError(f"min_slope must be finite and positive, got {min_slope}")
    E = EvoluteCurve(curve)
    if grid is None:
        grid = np.linspace(curve.domain[0], curve.domain[1], DEFAULT_EVOLUTE_POINTS)
    grid = _parameter_grid(grid).tolist()
    metric = _shared_metric(6)
    passes = []

    def sample(ts):
        # W4 and k3 come out at order 2; the sample reads them to order 1
        fj = frame_grid(curve, ts)
        passes.append((ts, fj))
        k3 = fj.curvatures[2]
        require(np.abs(k3.value) >= MIN_CURVATURE, lambda j: HypothesisError(
            f"k3 = {k3.value[j]:.3e} at t={ts[j]}", condition="k3 != 0",
            location=float(ts[j])))
        slope = (1.0 / k3).derivative(1)
        require(np.abs(slope) >= min_slope, lambda j: HypothesisError(
            f"(1/k3)' = {slope[j]:.3e} at t={ts[j]}: evolute not regular there",
            condition="(1/k3)' != 0", location=float(ts[j])))
        vj = _evolute_jets(fj, 1)
        Ep = vj.derivative_value(1)
        speed_sq = metric.inner(Ep, Ep)
        return slope, np.abs(speed_sq - slope * slope), vj.value

    slopes, speed_defects, points = pointwise_order(sample, grid)
    # on success the pass of the one call on the whole grid
    E._hold_frames(*passes[-1])
    sampled = SampledCurve(np.asarray(grid), points)
    return EvoluteResult(E, sampled, tuple(grid), float(np.max(speed_defects)),
                         float(np.min(np.abs(slopes))))


class InvoluteCurve(_BatchedCurve):
    """Unwinding c(t) - s(t) T(t) of a spacelike curve by its arc length.

    ``s(t) = arc_offset + (arc length from c(t0))``, read off an
    :class:`ArcLengthCurve` of the base, which refuses a base that is not
    spacelike at a table point.  The offset admits base points that lie
    outside the parametrized piece, as the arc-length-matched unwinding of an
    evolute generally does.  ``unit_speed=True`` certifies |c'| = 1 instead:
    then s(t) = arc_offset + t - t0 exactly, with no table.
    """

    def __init__(self, base, t0, arc_offset=0.0, intervals=512, unit_speed=False):
        if isinstance(base, SampledCurve):
            base = SplineCurve(base)
        self.base = base
        self.dimension = base.dimension
        self.domain = base.domain
        self.t0 = float(t0)
        self.arc_offset = float(arc_offset)
        if not math.isfinite(self.arc_offset):
            raise InputError(f"arc_offset must be finite, got {self.arc_offset}")
        _check_in_domain(self.t0, base.domain)
        self._metric = _shared_metric(base.dimension)
        self._arc = None
        if not unit_speed:
            self._arc = ArcLengthCurve(base, intervals)
            self._s0 = self._arc.arc_length_of(self.t0)

    def arc_length(self, t):
        if self._arc is None:
            return self.arc_offset + np.asarray(t, dtype=float) - self.t0
        return self.arc_offset + self._arc.arc_length_of(t) - self._s0

    def _vec_jets(self, ts, order):
        cj = self.base.vec_jets(ts, order + 1)
        cp = cj.differentiate()
        speed = self._metric.inner_jet(cp, cp).sqrt()
        s_jet = speed.antiderivative(self.arc_length(ts))
        T = cp.scale(1.0 / speed)
        return cj.truncate(order) - T.scale(s_jet).truncate(order)


class InvoluteResult(Record):
    curve: InvoluteCurve
    sampled: SampledCurve
    grid: tuple[float, ...]


def involute(curve, t0, grid=None, arc_offset=0.0):
    """Involute of a spacelike curve from c(t0), sampled on the grid."""
    inv = InvoluteCurve(curve, t0, arc_offset)
    if grid is None:
        grid = np.linspace(inv.domain[0], inv.domain[1], DEFAULT_EVOLUTE_POINTS)
    grid = _parameter_grid(grid).tolist()
    points = pointwise_order(lambda ts: inv.vec_jets(ts, 0).value, grid)
    return InvoluteResult(inv, SampledCurve(np.asarray(grid), points), tuple(grid))


class InvoluteFrameReport(Record):
    """Evidence that the involute of a suitable spacelike curve is Cartan.

    ``k3_max_rel_error`` compares the extracted third curvature with the
    reciprocal of the arc-length parameter; ``w4_sign`` records which of the
    (+T, -T) alignments occurred.
    """

    grid: tuple[float, ...]
    k3_max_rel_error: float
    w4_sign: int
    w4_alignment_defect: float
    evolute_match: float
    involute_null_defect: float
    third_norm_defect: float
    hypothesis_evidence: dict[str, float]


def involute_frame_check(curve, grid):
    """Frame the involute of a unit-speed spacelike curve and verify it.

    The curve parameter must be arc length measured so that s > 0 on the
    grid.  The batched pass checks each point for s > 0, unit speed and a
    null second derivative (against ``INVOLUTE_GATE``), <c'''',c''''> > 0 and
    independent {c'',...,c^(6)}, in that order; the first point in grid order
    that fails one raises its HypothesisError, with the point as ``location``.
    Independence is classification's rule: every relative QR pivot reaches
    ``DEFAULT_TOL``, and the least is the evidence ``min_pivot``.  The
    involute is reframed after pseudo-arc reparametrization; the report
    compares k3 with 1/s, W4 with the unit tangent (the sign must be the
    first point's) and the evolute of that frame with the original curve.
    """
    grid = _parameter_grid(grid).tolist()
    metric = _shared_metric(curve.dimension)
    if curve.dimension != 6:
        raise HypothesisError("the correspondence lives in dimension 6",
                              condition="dimension == 6")
    s = np.asarray(grid)

    def gate(ok, ts, condition, message):
        # raise at the first ts[j] where ok is False; message(j, at) gets at = "at s=ts[j]"
        require(ok, lambda j: HypothesisError(message(j, f"at s={ts[j]}"),
                                              condition=condition, location=float(ts[j])))

    def rows(ts):
        # a NaN is left to the domain rule of vec_jets
        gate(~(ts <= 0.0), ts, "s > 0", lambda j, at: f"grid must lie in s > 0, not {at}")
        vj = curve.vec_jets(ts, 6)
        d, norms = _derivative_rows(vj, 6)
        speed = np.abs(metric.inner(d[:, 0], d[:, 0]) - 1.0)
        c2 = np.abs(metric.inner(d[:, 1], d[:, 1]))
        eta_sq = metric.inner(d[:, 3], d[:, 3])
        # NaN where a row has one
        pivot = _span_qr(d[:, 1:6], "raw", norms[:, 1:6])[1].min(axis=-1)
        gate(speed <= INVOLUTE_GATE, ts, "<c',c'> = 1", lambda j, at:
             f"|<c',c'> - 1| = {speed[j]:.3e} {at}: parameter is not arc length")
        gate(c2 <= INVOLUTE_GATE, ts, "<c'',c''> = 0",
             lambda j, at: f"|<c'',c''>| = {c2[j]:.3e} {at}")
        gate(eta_sq > 0.0, ts, "<c'''',c''''> > 0",
             lambda j, at: f"<c'''',c''''> = {eta_sq[j]:.3e} <= 0 {at}")
        gate(pivot >= DEFAULT_TOL, ts, "independent derivatives",
             lambda j, at: f"{{c'',...,c^(6)}} is linearly dependent {at}")
        return vj.value, d, speed, c2, eta_sq, pivot

    c0, d, speed, c2, eta_sq, pivot = pointwise_order(rows, s)
    evidence = {"min_s": min(grid), "unit_speed": float(np.max(speed)),
                "c2_null": float(np.max(c2)), "min_eta_sq": float(np.min(eta_sq)),
                "min_pivot": float(np.min(pivot))}

    inv = InvoluteCurve(curve, curve.domain[0], arc_offset=curve.domain[0],
                        unit_speed=True)
    ij = pointwise_order(lambda ts: tuple(inv.vec_jets(ts, 3).coeffs), s)
    i1, i3 = ij[1], 6.0 * ij[3]
    null_defect = float(np.max(np.abs(metric.inner(i1, i1))))
    third_defect = float(np.max(np.abs(metric.inner(i3, i3) - s * s * eta_sq)))

    rep = ReparametrizedCurve(inv)

    def framed(ts):
        fj = frame_grid(rep, rep.pseudo_arc_of(ts))
        k3 = fj.curvatures[2].value
        gate(np.abs(k3) >= MIN_CURVATURE, ts, "k3 != 0",
             lambda j, at: f"extracted k3 = {k3[j]:.3e} {at}")
        return k3, fj.W[1].value, _evolute_jets(fj, 0).value

    k3, W4, E_I = pointwise_order(framed, s)
    k3_err = float(np.max(np.abs(k3 - 1.0 / s) * s))
    T = d[:, 0]
    plus = _row_norms(W4 - T)
    minus = _row_norms(W4 + T)
    sign_votes = np.where(plus <= minus, 1, -1)
    align_defect = float(np.max(np.minimum(plus, minus)))
    ev_match = float(np.max(np.abs(E_I - c0)))
    sign = int(sign_votes[0])
    gate(sign_votes == sign, s, "W4 = +/- T consistently",
         lambda j, at: f"W4 alignment sign flips across the grid {at}")
    return InvoluteFrameReport(tuple(grid), k3_err, sign, align_defect, ev_match,
                               null_defect, third_defect, evidence)
