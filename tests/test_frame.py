"""Frame extraction and residual tests.

``test_extraction_satisfies_frenet_system`` is the formula-validation gate:
the extracted frame is substituted back into the Frenet equations with jet
derivatives at random parameters of synthesized curves of three dimensions.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nullcartan import (
    CurvatureProfile,
    DegenerateBasisError,
    FamilyError,
    Frame,
    FrameDegeneracyError,
    InputError,
    NullCartanError,
    OffsetCurve,
    PseudoMetric,
    ReparametrizedCurve,
    cartan_frame_at,
    classify,
    frame_jets,
    frenet_residuals,
    synthesize,
)
from nullcartan.constructions import _frenet_couplings
from nullcartan.curve import _derivative_rows
from nullcartan.errors import require
from nullcartan.expr import Jet, VecJet, _constant, _mul, _scale, _weighted
from nullcartan.frame import (
    CURVATURE_FLOOR,
    NULL_CHAIN_GATE,
    PSEUDO_ARC_GATE,
    cartan_frames,
    frame_grid,
    frame_rows,
    frenet_system,
    stencil_residuals,
)

from conftest import (
    PROTOCOL_CLASSES,
    SYNTH_PROFILES,
    golden_L1,
    golden_L2,
    golden_N1,
    golden_N2,
    golden_W3,
    random_isometry_frame,
    warped_quintic,
)


def frame_equation_residuals(fj, n, metric):
    """Jet-derivative residuals of every Frenet equation for extracted frames."""
    k = [None] + [c for c in fj.curvatures]
    res = {}

    def norm_at(vecjet_diff, combo):
        return float(np.linalg.norm(vecjet_diff.value - combo))

    res["L1'"] = norm_at(fj.L1.differentiate(), fj.L2.value)
    res["L2'"] = norm_at(fj.L2.differentiate(), fj.W[0].value)
    res["W3'"] = norm_at(fj.W[0].differentiate(),
                         -k[1].value * fj.L2.value + fj.N2.value)
    res["N2'"] = norm_at(fj.N2.differentiate(),
                         k[2].value * fj.L1.value + fj.N1.value
                         - k[1].value * fj.W[0].value)
    if n == 5:
        res["N1'"] = norm_at(fj.N1.differentiate(), k[2].value * fj.L2.value)
    else:
        res["N1'"] = norm_at(fj.N1.differentiate(),
                             k[2].value * fj.L2.value + k[3].value * fj.W[1].value)
        for i in range(4, n - 1):
            lhs = fj.W[i - 3].differentiate()
            if i == 4:
                combo = -k[3].value * fj.L1.value
                if n >= 7:
                    combo = combo + k[4].value * fj.W[2].value
            else:
                combo = -k[i - 1].value * fj.W[i - 4].value
                if i + 1 <= n - 2:
                    combo = combo + k[i].value * fj.W[i - 2].value
            res[f"W{i}'"] = norm_at(lhs, combo)
    return res


# ---------------------------------------------------------------------------
# Golden frame
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
def test_golden_frame_matches_closed_forms(golden, s):
    f = cartan_frame_at(golden, s)
    assert np.max(np.abs(f.L1 - golden_L1(s))) <= 1e-9
    assert np.max(np.abs(f.L2 - golden_L2(s))) <= 1e-9
    assert np.max(np.abs(f.W[0] - golden_W3(s))) <= 1e-9
    assert np.max(np.abs(f.N2 - golden_N2(s))) <= 1e-9
    assert np.max(np.abs(f.N1 - golden_N1(s))) <= 1e-9
    assert abs(f.curvatures[0]) <= 1e-9
    assert abs(f.curvatures[1]) <= 1e-9


def test_golden_frame_orientation_matches_derivatives(golden):
    m = PseudoMetric(5)
    for s in (0.0, 0.5, 1.0):
        f = cartan_frame_at(golden, s)
        derivs = golden.derivatives(s, 5)
        assert f.orientation == m.orientation_sign(derivs)


# ---------------------------------------------------------------------------
# Normalization invariants
# ---------------------------------------------------------------------------

def _normalization_defect(curve, t):
    n = curve.dimension
    m = PseudoMetric(n)
    f = cartan_frame_at(curve, t)
    defect = 0.0
    defect = max(defect, abs(m.inner(f.L1, f.N1) - 1.0))
    defect = max(defect, abs(m.inner(f.L2, f.N2) + 1.0))
    for a in (f.L1, f.L2, f.N1, f.N2):
        defect = max(defect, abs(m.inner(a, a)))
    defect = max(defect, abs(m.inner(f.L1, f.L2)))
    defect = max(defect, abs(m.inner(f.N1, f.N2)))
    defect = max(defect, abs(m.inner(f.L1, f.N2)))
    defect = max(defect, abs(m.inner(f.L2, f.N1)))
    W = np.stack(f.W)
    gram = (W * m.signs) @ W.T
    defect = max(defect, float(np.max(np.abs(gram - np.eye(len(f.W))))))
    for w in f.W:
        for a in (f.L1, f.L2, f.N1, f.N2):
            defect = max(defect, abs(m.inner(w, a)))
    return defect


def test_frame_normalization_on_golden(golden):
    for s in np.linspace(-0.1, 1.1, 9):
        assert _normalization_defect(golden, float(s)) <= 1e-9


def test_frame_normalization_on_synthesized(synth6, synth8):
    for curve in (synth6, synth8):
        for t in np.linspace(0.05, 0.95, 7):
            assert _normalization_defect(curve, float(t)) <= 1e-9


def test_derived_pairing_identities(golden, synth6, synth8):
    # <W3',L2> = -1, <N2',L1> = 1, <N2',W3> = -k1, <N1',N2> = -k2
    for curve in (golden, synth6, synth8):
        m = PseudoMetric(curve.dimension)
        for t in np.linspace(0.1, 0.9, 5):
            fj = frame_jets(curve, float(t))
            w3p = fj.W[0].differentiate()
            n2p = fj.N2.differentiate()
            n1p = fj.N1.differentiate()
            k1, k2 = fj.curvatures[0].value, fj.curvatures[1].value
            assert m.inner_jet(w3p, fj.L2).value == pytest.approx(-1.0, abs=1e-9)
            assert m.inner_jet(n2p, fj.L1).value == pytest.approx(1.0, abs=1e-9)
            assert m.inner_jet(n2p, fj.W[0]).value == pytest.approx(-k1, abs=1e-9)
            assert m.inner_jet(n1p, fj.N2).value == pytest.approx(-k2, abs=1e-9)


def test_k2_cross_validation(golden, synth6, synth8):
    # the extraction value of k2 agrees with the pairing -<N1',N2>
    for curve in (golden, synth6, synth8):
        m = PseudoMetric(curve.dimension)
        for t in np.linspace(0.1, 0.9, 5):
            fj = frame_jets(curve, float(t))
            k2 = fj.curvatures[1].value
            pairing = -m.inner_jet(fj.N1.differentiate(), fj.N2).value
            assert k2 == pytest.approx(pairing, abs=1e-8)


def test_frame_spans_derivative_flag(golden, synth6):
    # span{L1,L2,W3,N2,N1} = span{alpha',...,alpha^(5)}
    for curve in (golden, synth6):
        t = 0.4
        f = cartan_frame_at(curve, t)
        derivs = curve.derivatives(t, 5)
        stacked = np.vstack([f.L1, f.L2, f.W[0], f.N2, f.N1, *derivs])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == 5


# ---------------------------------------------------------------------------
# Extraction validation against the Frenet system (mandated oracle gate)
# ---------------------------------------------------------------------------

def test_extraction_satisfies_frenet_system(synth_flat5, synth6, synth8):
    rng = np.random.default_rng(404)
    for curve in (synth_flat5, synth6, synth8):
        n = curve.dimension
        m = PseudoMetric(n)
        for t in rng.uniform(0.02, 0.98, size=20):
            fj = frame_jets(curve, float(t), extra_order=1)
            res = frame_equation_residuals(fj, n, m)
            worst = max(res.values())
            assert worst <= 1e-9, (n, t, res)
            assert fj.closure_residual <= 1e-9


def test_recovered_curvatures_match_prescriptions(synth6):
    for t in np.linspace(0.05, 0.95, 7):
        f = cartan_frame_at(synth6, float(t))
        want = np.array([0.2, -0.1, 1.0 + t])
        assert np.max(np.abs(np.array(f.curvatures) - want)) <= 1e-6


def test_recovered_curvatures_n8(synth8):
    for t in (0.2, 0.6, 0.9):
        f = cartan_frame_at(synth8, float(t))
        want = np.array([0.1 + 0.05 * t, -0.2, 1.5 + 0.3 * np.sin(t),
                         1.0 + 0.2 * t, 2.0 - 0.3 * t])
        assert np.max(np.abs(np.array(f.curvatures) - want)) <= 1e-6


@pytest.mark.parametrize("n", [6, 8])
@settings(max_examples=5, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_curvatures_and_sequences_invariant_under_isometries(n, seed, request):
    # the same profile from a frame and base point moved by an index-2 isometry
    base = request.getfixturevalue(f"synth{n}")
    rng = np.random.default_rng(seed)
    initial = random_isometry_frame(n, rng, alpha=rng.normal(size=n))
    moved = synthesize(CurvatureProfile.from_strings(n, SYNTH_PROFILES[n]), (0.0, 1.0),
                       initial=initial)
    grid = np.linspace(0.05, 0.95, 9)
    want = np.stack([k.value for k in cartan_frames(base, grid).curvatures])
    got = np.stack([k.value for k in cartan_frames(moved, grid).curvatures])
    assert np.max(np.abs(got - want)) <= 1e-6
    assert classify(moved, grid).report == classify(base, grid).report


def test_frame_extraction_takes_one_determinant_pass(synth6, monkeypatch):
    shapes = []
    for name in ("det", "slogdet"):
        def counted(a, _name=name, _original=getattr(np.linalg, name)):
            shapes.append((_name, np.shape(a)))
            return _original(a)

        monkeypatch.setattr(np.linalg, name, counted)
    frame_grid(synth6, np.linspace(0.1, 0.9, 5))
    # one pass over the frame bases and one over the derivative bases, each
    # stacked over the grid: the sign of det F, and that of orientation_signs
    assert shapes == [("det", (5, 6, 6)), ("slogdet", (5, 6, 6))]


# the protocol classes whose curves in ``protocol_curves`` are in the family
FRAMED = {"Curve", "FrenetCurve", "OffsetCurve", "ReparametrizedCurve"}
# classes there whose jets on a one-point grid differ in the last bits from
# their row of a longer grid: the reparametrized warped quintic composes and
# inverts series, whose Cauchy products (einsum) sum in an order that depends
# on the length of the grid
ROUNDOFF_JETS = {"ReparametrizedCurve"}


@pytest.mark.parametrize("name", PROTOCOL_CLASSES)
def test_a_single_frame_is_its_row_of_the_batched_frames(protocol_curves, name):
    # one extraction path: cartan_frame_at reads index 0 of the one-point
    # frame_grid, so on the same jets it is the batch's row bit for bit
    curve = protocol_curves[name]
    a, b = curve.domain
    grid = a + (b - a) * np.array([0.1, 0.37, 0.62, 0.9])
    try:
        frames = cartan_frames(curve, grid)
    except NullCartanError as exc:
        # outside the family every point fails, and the single point meets
        # the batch's error at its first point
        assert name not in FRAMED
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            cartan_frame_at(curve, grid[0])
        return
    assert name in FRAMED
    order = curve.dimension + 2
    jets = curve.vec_jets(grid, order).coeffs
    same_jets = all(np.array_equal(curve.vec_jets(grid[i:i + 1], order).coeffs[:, 0], jets[:, i])
                    for i in range(len(grid)))
    assert same_jets or name in ROUNDOFF_JETS
    if same_jets:
        equal = np.array_equal
    else:
        def equal(x, y):
            return np.allclose(x, y, rtol=1e-12, atol=1e-12)
    batch = frames.value
    for i, t in enumerate(grid):
        f = cartan_frame_at(curve, t)
        assert type(f.t) is float and f.t == t
        got, want = (f.L1, f.L2, f.N1, f.N2, *f.W), (batch.L1, batch.L2, batch.N1, batch.N2, *batch.W)
        assert len(got) == len(want)
        assert all(equal(g, w[i]) for g, w in zip(got, want))
        assert all(type(k) is float for k in f.curvatures)
        assert equal(np.array(f.curvatures), np.array([k[i] for k in batch.curvatures]))
        assert type(f.closure_residual) is float
        assert type(f.orientation) is int and f.orientation == batch.orientation[i]
    # a returned vector changed in place does not change the next call
    first = cartan_frame_at(curve, grid[0])
    vectors = (first.L1, first.L2, first.N1, first.N2, *first.W)
    kept = [v.copy() for v in vectors]
    for v in vectors:
        v[:] = np.nan
    again = cartan_frame_at(curve, grid[0])
    assert all(np.array_equal(g, w)
               for g, w in zip((again.L1, again.L2, again.N1, again.N2, *again.W), kept))


def test_frenet_system_is_built_once_immutable_and_bounded():
    system = frenet_system(6)
    assert system is frenet_system(6)
    # tuples all the way down: no caller can change what the next one reads
    assert isinstance(system, tuple)
    for row, terms in system:
        assert isinstance(terms, tuple) and all(isinstance(term, tuple) for term in terms)
    with pytest.raises(TypeError):
        system[0] = ("alpha", ())
    maxsize = frenet_system.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    # the readers see the rows they read before the cache: extraction, the
    # report columns (frame_rows), the state layout of the synthesizer and,
    # in test_residual_labels_per_dimension, the residual labels
    assert frenet_system(7) == (
        ("alpha", (("L1", 0, 1),)), ("L1", (("L2", 0, 1),)), ("L2", (("W3", 0, 1),)),
        ("W3", (("L2", 1, -1), ("N2", 0, 1))),
        ("N2", (("L1", 2, 1), ("N1", 0, 1), ("W3", 1, -1))),
        ("N1", (("L2", 2, 1), ("W4", 3, 1))), ("W4", (("L1", 3, -1), ("W5", 4, 1))),
        ("W5", (("W4", 4, -1),)))
    assert frame_rows(5) == ["L1", "L2", "W3", "N2", "N1"]
    assert frame_rows(8) == ["L1", "L2", "W3", "N2", "N1", "W4", "W5", "W6"]
    P = _frenet_couplings(7)
    alpha, L1, L2, W3, N2, N1, W4, W5 = range(8)
    assert [(int(c), int(i), int(j), int(P[c, i, j])) for c, i, j in zip(*np.nonzero(P))] == [
        (0, alpha, L1, 1), (0, L1, L2, 1), (0, L2, W3, 1), (0, W3, N2, 1), (0, N2, N1, 1),
        (1, W3, L2, -1), (1, N2, W3, -1), (2, N2, L1, 1), (2, N1, L2, 1), (3, N1, W4, 1),
        (3, W4, L1, -1), (4, W4, W5, 1), (4, W5, W4, -1)]


# ---------------------------------------------------------------------------
# Degeneracy and gate behavior
# ---------------------------------------------------------------------------

def test_frame_rejects_non_family_curve():
    from nullcartan import Curve
    fake = Curve.from_strings(["s", "s^2/2", "s^3/6", "s^4/24", "s^5/120"],
                              domain=(0.0, 1.0))
    with pytest.raises(FamilyError):
        cartan_frame_at(fake, 0.5)


def test_frame_rejects_constant_curve():
    from nullcartan import Curve
    flat = Curve.from_strings(["1", "2", "3", "4", "5"], domain=(0.0, 1.0))
    with pytest.raises(FamilyError):
        cartan_frame_at(flat, 0.5)


def test_vanishing_k3_aborts_with_partial_frame():
    profile = CurvatureProfile.from_strings(6, ["0.1", "0.0", "t - 0.5"])
    curve = synthesize(profile, (0.0, 1.0))
    with pytest.raises(FrameDegeneracyError) as exc:
        cartan_frame_at(curve, 0.5)
    assert exc.value.index == 3
    partial = exc.value.partial
    assert partial is not None and len(partial.curvatures) == 2
    # the rows found before the failing normalizer: alpha, L1, L2, W3, N2, N1
    assert partial.t == 0.5 and partial.rows.coeffs.shape[-2:] == (6, 6)
    metric = PseudoMetric(6)
    N1, L1 = partial.N1.value, partial.L1.value
    assert abs(metric.inner(N1, N1)) <= 1e-9
    assert metric.inner(L1, N1) == pytest.approx(1.0, abs=1e-9)
    # away from the zero the frame exists, with the positive-gauge curvature
    f = cartan_frame_at(curve, 0.2)
    assert f.curvatures[2] == pytest.approx(0.3, abs=1e-9)


# ---------------------------------------------------------------------------
# Extraction oracle: the Frenet recursion as a loop of jet operators
# ---------------------------------------------------------------------------

def operator_frame(curve, ts, extra_order):
    """The row recursion of :func:`frame_grid` written with ``Jet`` and
    ``VecJet`` operators: rows (K+1, m, n+1, n), curvature series, closure
    residual and orientation.  Where a normalizer vanishes at some point it
    returns the rows and curvatures found before it, with no checks."""
    ts = np.asarray(ts, dtype=float)
    n = curve.dimension
    metric = PseudoMetric(n)
    A = curve.vec_jets(ts, n + 2 + extra_order)
    floor = CURVATURE_FLOOR * (1.0 + _derivative_rows(A, n)[1].max(axis=1))

    def stack(vectors):
        rows = list(vectors.values())
        size = len(rows[-1].coeffs)
        return np.concatenate([v.coeffs[:size, ..., None, :] for v in rows], axis=-2)

    vectors = {"alpha": A}
    k = [None]
    for row, terms in frenet_system(n):
        v = vectors[row].differentiate()
        if row == "W3":
            k.append(metric.inner_jet(v, v) * 0.5)
        elif row == "N2":
            k.append((metric.inner_jet(v, v) - k[1] * k[1]) * 0.5)
        new = None
        for target, c, sign in terms:
            if target not in vectors:
                new = target, c
            else:
                term = vectors[target] if c == 0 else vectors[target].scale(k[c])
                v = v - term if sign > 0 else v + term
        if new is None:
            closure = np.linalg.norm(v.coeffs[0], axis=-1)
            break
        target, c = new
        if c:
            vv = metric.inner_jet(v, v)
            if not np.all(vv.value > floor * floor):
                return stack(vectors), [kc.coeffs for kc in k[1:]], None, None
            k.append(vv.sqrt())
            v = v.scale(1.0 / k[c])
        vectors[target] = v
    rows = stack(vectors)
    return (rows, [kc.coeffs for kc in k[1:]], closure,
            metric.orientation_signs(rows[0, :, 1:]))


@pytest.fixture(scope="module")
def oracle_curves(golden, synth6, synth8):
    synth5 = synthesize(CurvatureProfile.from_strings(5, ["0.3 + 0.2*t", "-0.4"]), (0.0, 1.0))
    return {"quintic": golden, "offset": OffsetCurve(golden, 0.7),
            "reparametrized": ReparametrizedCurve(warped_quintic(golden)),
            "synth5": synth5, "synth6": synth6, "synth8": synth8}


@pytest.mark.parametrize("extra_order", [0, 1, 3])
@pytest.mark.parametrize("points", [1, 9])
@pytest.mark.parametrize("name", ["quintic", "offset", "reparametrized",
                                  "synth5", "synth6", "synth8"])
def test_extraction_is_the_operator_recursion_bit_for_bit(oracle_curves, name, points,
                                                          extra_order):
    curve = oracle_curves[name]
    a, b = curve.domain
    ts = a + (b - a) * (np.array([0.37]) if points == 1 else np.linspace(0.05, 0.95, points))
    rows, curvatures, closure, orientation = operator_frame(curve, ts, extra_order)
    frame = frame_grid(curve, ts, extra_order)
    assert np.array_equal(frame.rows.coeffs, rows)
    assert len(frame.curvatures) == len(curvatures) == curve.dimension - 3
    for got, want in zip(frame.curvatures, curvatures):
        assert np.array_equal(got.coeffs, want)
    assert np.array_equal(frame.closure_residual, closure)
    assert np.array_equal(frame.orientation, orientation)
    # the orders each reader can count on: rows 2 + e, k_c n - 1 + e - c
    assert frame.rows.order == 2 + extra_order
    assert [k.order for k in frame.curvatures] == [
        curve.dimension - 1 + extra_order - c for c in range(1, curve.dimension - 2)]


def test_partial_frame_is_the_operator_recursion_bit_for_bit():
    profile = CurvatureProfile.from_strings(6, ["0.1", "0.0", "t - 0.5"])
    curve = synthesize(profile, (0.0, 1.0))
    rows, curvatures, closure, _ = operator_frame(curve, [0.5], 0)
    assert closure is None  # the oracle stopped at the vanishing normalizer
    with pytest.raises(FrameDegeneracyError) as exc:
        cartan_frame_at(curve, 0.5)
    partial = exc.value.partial
    assert np.array_equal(partial.rows.coeffs, rows[:, 0])
    assert len(partial.curvatures) == len(curvatures) == 2
    for got, want in zip(partial.curvatures, curvatures):
        assert np.array_equal(got.coeffs, want[:, 0])


# ---------------------------------------------------------------------------
# Extraction oracle: frame_grid as it was before its fixed cost was cut
# ---------------------------------------------------------------------------

def reference_sqrt(f):
    """The series square root as it was: check, then the order recurrence."""
    if np.any(f[0] <= 0.0):
        raise ValueError("sqrt of a jet with nonpositive constant term")
    h = np.empty_like(f)
    h[0] = np.sqrt(f[0])
    for k in range(1, len(f)):
        acc = f[k]
        if k >= 2:
            acc = acc - np.einsum("j...,j...->...", h[1:k], h[k - 1:0:-1])
        h[k] = acc / (2.0 * h[0])
    return h


def reference_div(a, b):
    """The series quotient as it was: check, then the order recurrence."""
    size = min(len(a), len(b))
    b0 = b[0]
    if np.any(b0 == 0.0):
        raise ZeroDivisionError("division by a jet with zero constant term")
    h = np.empty(np.broadcast_shapes(a[:size].shape, b[:size].shape))
    h[0] = a[0] / b0
    for k in range(1, size):
        h[k] = (a[k] - np.einsum("j...,j...->...", h[:k], b[k:0:-1])) / b0
    return h


def reference_derivative_rows(vj, n):
    factorials = np.array([math.factorial(k) for k in range(1, n + 1)], dtype=float)
    derivs = (vj.coeffs[1:n + 1] * factorials[:, None, None]).swapaxes(0, 1).copy()
    norms = np.linalg.norm(derivs, axis=-1)
    overflow = np.isinf(norms)
    require(~overflow.any(axis=1), lambda j: DegenerateBasisError(
        f"|alpha^({int(overflow[j].argmax()) + 1})| overflows at t={vj.base[j]}: "
        "the derivative system is too large for floating point"))
    return derivs, norms


def reference_orientation_signs(metric, bases):
    M = metric._bases(bases)
    a = np.linalg.qr(M.swapaxes(-1, -2), "raw")[0]
    r = np.diagonal(a, axis1=-2, axis2=-1)
    pivots = np.abs(r) / np.maximum(np.linalg.norm(M, axis=-1), np.finfo(float).tiny)
    require(pivots.min(axis=-1) >= 1e-12, lambda j: DegenerateBasisError(
        f"alpha^({np.isfinite(M[j]).all(-1).argmin() + 1}) is not finite"
        if not np.isfinite(M[j]).all() else "zero vector in basis"
        if (M[j] == 0.0).all(axis=-1).any() else
        f"orientation ambiguous: normalized determinant {np.prod(pivots[j]):.3e}"))
    return np.where(np.linalg.slogdet(M)[0] > 0, 1, -1)


def reference_family_gates(metric, D, scale, ts):
    gate = scale * scale
    G = metric.gram(D)
    vals = G[:, np.array([0, 0, 1, 0, 1]), np.array([0, 1, 1, 2, 2])].T
    m = len(ts)
    chain = ("<a',a'>", "<a',a''>", "<a'',a''>", "<a',a'''>", "<a'',a'''>")
    require((np.abs(vals) <= NULL_CHAIN_GATE * gate).ravel(), lambda j: FamilyError(
        f"null-chain identity {chain[j // m]} = {vals.flat[j]:.3e} violated at "
        f"t={ts[j % m]}; curve is not in the supported family"))
    w3 = G[:, 2, 2]
    require(np.abs(w3 - 1.0) <= PSEUDO_ARC_GATE * gate, lambda j: FamilyError(
        f"<a''',a'''> = {w3[j]:.6e} at t={ts[j]}: curve is not pseudo-arc parametrized"))


def reference_jet_frame(base, ts, vectors, k):
    rows = list(vectors.values())
    size = len(rows[-1])
    stacked = np.concatenate([v[:size, ..., None, :] for v in rows], axis=-2)
    return Frame(VecJet(base, stacked), ts, tuple(Jet(base, c) for c in k[1:]))


def reference_frame_grid(curve, ts, extra_order=0):
    """frame_grid with its derivative rows, family gates, orientation and
    series square root and quotient as they were before the fixed cost of a
    call was cut; the other series kernels are the library's."""
    ts = np.asarray(ts, dtype=float)
    n = curve.dimension
    metric = PseudoMetric(n)
    A = curve.vec_jets(ts, n + 2 + extra_order)
    derivs, norms = reference_derivative_rows(A, n)
    reference_family_gates(metric, derivs[:, :3], 1.0 + norms[:, :3].max(axis=1), A.base)
    floor = CURVATURE_FLOOR * (1.0 + norms.max(axis=1))

    def truncated(op, a, b):
        size = min(len(a), len(b))
        return op(a[:size], b[:size])

    vectors = {"alpha": A.coeffs}
    k = [None]
    for row, terms in frenet_system(n):
        v = _weighted(vectors[row])[1:]
        if row == "W3":
            k.append(metric.inner_series(v, v) * 0.5)
        elif row == "N2":
            vv = metric.inner_series(v, v)
            k.append(truncated(np.subtract, vv, _mul(k[1], k[1])) * 0.5)
        new = None
        for target, c, sign in terms:
            if target not in vectors:
                new = target, c
            else:
                term = vectors[target] if c == 0 else _scale(k[c], vectors[target])
                v = truncated(np.subtract if sign > 0 else np.add, v, term)
        if new is None:
            closure_residual = np.linalg.norm(v[0], axis=-1)
            break
        target, c = new
        if c:
            vv = metric.inner_series(v, v)
            require(vv[0] > floor * floor, lambda j: FrameDegeneracyError(
                f"normalizer <v,v> = {vv[0, j]:.3e} at curvature index {c}: "
                f"frame continuation aborted at t={ts[j]}", index=c,
                partial=reference_jet_frame(A.base, ts, vectors, k).at(j)))
            k.append(reference_sqrt(vv))
            v = _scale(reference_div(_constant(1.0, k[c]), k[c]), v)
        vectors[target] = v

    frame = reference_jet_frame(A.base, ts, vectors, k)
    sign_frame = np.sign(np.linalg.det(frame.rows.coeffs[0, :, 1:]))
    sign_derivs = reference_orientation_signs(metric, derivs)
    require(sign_frame == sign_derivs, lambda j: DegenerateBasisError(
        f"frame orientation {sign_frame[j]:g} disagrees with the derivative "
        f"basis orientation {sign_derivs[j]} at t={ts[j]}"))
    return Frame(frame.rows, ts, frame.curvatures, closure_residual, sign_derivs)


def assert_same_frame(got, want):
    for a, b in [(got.rows, want.rows), *zip(got.curvatures, want.curvatures)]:
        assert type(a) is type(b)
        assert np.array_equal(a.base, b.base) and np.array_equal(a.coeffs, b.coeffs)
    assert len(got.curvatures) == len(want.curvatures)
    for a, b in [(got.closure_residual, want.closure_residual),
                 (got.orientation, want.orientation)]:
        assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
    assert np.array_equal(got.t, want.t)


@pytest.mark.parametrize("extra_order", [0, 1])
@pytest.mark.parametrize("points", [1, 7, 61])
@pytest.mark.parametrize("name", sorted(FRAMED))
def test_frame_grid_is_the_reference_bit_for_bit(protocol_curves, name, points, extra_order):
    curve = protocol_curves[name]
    a, b = curve.domain
    ts = a + (b - a) * (np.array([0.37]) if points == 1 else np.linspace(0.05, 0.95, points))
    assert_same_frame(frame_grid(curve, ts, extra_order),
                      reference_frame_grid(curve, ts, extra_order))


class NaNJets:
    """``base`` with NaN Taylor coefficients of the given ``orders`` at the
    one parameter ``at``."""

    def __init__(self, base, at, orders):
        self.base, self.at, self.orders = base, at, orders
        self.dimension, self.domain = base.dimension, base.domain

    def vec_jets(self, ts, order):
        vj = self.base.vec_jets(ts, order)
        coeffs = vj.coeffs.copy()
        for k in self.orders:
            if k <= order:
                coeffs[k, np.asarray(ts) == self.at] = np.nan
        return VecJet(vj.base, coeffs)


REFUSAL_GRID = np.linspace(0.1, 0.9, 9)


@pytest.fixture(scope="module")
def refused_curves(golden, synth6):
    """Curves that frame_grid refuses, each with a grid it refuses."""
    from nullcartan import Curve
    bad = REFUSAL_GRID[4]
    vanishing_k3 = synthesize(CurvatureProfile.from_strings(6, ["0.1", "0.0", "t - 0.5"]),
                              (0.0, 1.0))
    return {
        # a NaN in alpha' (a family gate), in alpha'''' (the normalizer
        # floor), and in alpha^(5) of the quintic, which has no normalizer
        # (the orientation)
        "nan_first": NaNJets(synth6, bad, [1]),
        "nan_fourth": NaNJets(synth6, bad, [4]),
        "nan_fifth": NaNJets(golden, bad, [5]),
        # degenerate: a vanishing normalizer at t = 0.5, a constant curve
        "vanishing_k3": vanishing_k3,
        "constant": Curve.from_strings(["1", "2", "3", "4", "5"], domain=(0.0, 1.0)),
        # outside the family
        "out_of_family": Curve.from_strings(["s", "s^2/2", "s^3/6", "s^4/24", "s^5/120"],
                                            domain=(0.0, 1.0)),
    }


@pytest.mark.parametrize("points", [1, 9])
@pytest.mark.parametrize("name", ["nan_first", "nan_fourth", "nan_fifth", "vanishing_k3",
                                  "constant", "out_of_family"])
def test_frame_grid_refuses_as_the_reference(refused_curves, name, points):
    curve = refused_curves[name]
    ts = REFUSAL_GRID[4:5] if points == 1 else REFUSAL_GRID
    with np.errstate(invalid="ignore"):
        with pytest.raises(NullCartanError) as want:
            reference_frame_grid(curve, ts)
        with pytest.raises(type(want.value)) as got:
            frame_grid(curve, ts)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    if isinstance(want.value, FrameDegeneracyError):
        assert got.value.index == want.value.index
        got, want = got.value.partial, want.value.partial
        assert got.t == want.t
        for a, b in [(got.rows, want.rows), *zip(got.curvatures, want.curvatures)]:
            assert np.array_equal(a.coeffs, b.coeffs, equal_nan=True)


@pytest.mark.parametrize("grid", [0.3, [[0.3, 0.4]], [], np.empty((0, 2))])
def test_frame_grid_refuses_a_grid_that_is_not_a_non_empty_line(golden, grid):
    # one check at entry, before any jet is read
    with pytest.raises(InputError, match=r"non-empty 1-D array of parameters, not one of "
                                         r"shape \("):
        frame_grid(golden, grid)


# ---------------------------------------------------------------------------
# Residual reports
# ---------------------------------------------------------------------------

def test_golden_residuals_on_61_point_grid(golden):
    report = frenet_residuals(golden, np.linspace(0.1, 1.1, 61))
    assert report.overall <= 1e-6
    assert set(report.per_equation) == {
        "alpha' = L1", "L1' = L2", "L2' = W3", "W3' = -k1 L2 + N2",
        "N2' = k2 L1 + N1 - k1 W3", "N1' = k2 L2"}


def test_synth8_residuals(synth8):
    report = frenet_residuals(synth8, np.linspace(0.05, 0.95, 61))
    assert report.overall <= 1e-5


LEADING_LABELS = ["alpha' = L1", "L1' = L2", "L2' = W3", "W3' = -k1 L2 + N2",
                  "N2' = k2 L1 + N1 - k1 W3"]


@pytest.mark.parametrize("n, curvatures, tail", [
    (5, ["0.3 + 0.2*t", "-0.4"], ["N1' = k2 L2"]),
    (6, ["1.5", "-1", "2 + sin(t)"], ["N1' = k2 L2 + k3 W4", "W4' = -k3 L1"]),
    (7, ["0.5", "0.2*t", "1 + 0.1*t^2", "-0.7"],
     ["N1' = k2 L2 + k3 W4", "W4' = -k3 L1 + k4 W5", "W5' = -k4 W4"]),
    (8, ["0.4", "-0.3", "1.2", "0.5 + 0.2*cos(t)", "0.8"],
     ["N1' = k2 L2 + k3 W4", "W4' = -k3 L1 + k4 W5", "W5' = -k4 W4 + k5 W6",
      "W6' = -k5 W5"]),
])
def test_residual_labels_per_dimension(n, curvatures, tail):
    curve = synthesize(CurvatureProfile.from_strings(n, curvatures), (0.0, 1.0))
    report = frenet_residuals(curve, np.linspace(0.05, 0.95, 61))
    assert list(report.per_equation) == LEADING_LABELS + tail
    assert report.overall <= 1e-5


def test_residual_grid_validation(golden):
    with pytest.raises(InputError):
        frenet_residuals(golden, np.linspace(0.1, 1.0, 5))
    with pytest.raises(InputError):
        frenet_residuals(golden, [0.1, 0.2, 0.4, 0.5, 0.7, 0.8, 1.0])
    # seven copies of one point are evenly spaced, with step 0
    with pytest.raises(InputError, match="residual grid step is zero"):
        frenet_residuals(golden, [0.5] * 7)


def test_stencil_residuals_apply_the_residual_grid_rule(golden):
    # a frame's own grid is held to the rule frenet_residuals states
    for frame in (cartan_frames(golden, [0.2, 0.3, 0.4]).value, cartan_frame_at(golden, 0.3)):
        with pytest.raises(InputError, match="residual grid needs at least 7 points"):
            stencil_residuals(frame)
    uneven = cartan_frames(golden, [0.1, 0.2, 0.4, 0.5, 0.7, 0.8, 1.0]).value
    with pytest.raises(InputError, match="residual grid must be uniformly spaced"):
        stencil_residuals(uneven)
    with pytest.raises(InputError, match="residual grid step is zero"):
        stencil_residuals(cartan_frames(golden, [0.5] * 7).value)
    # on a uniform grid it is the report of frenet_residuals
    grid = np.linspace(0.1, 1.1, 61)
    assert stencil_residuals(cartan_frames(golden, grid).value) == frenet_residuals(golden, grid)


# ---------------------------------------------------------------------------
# Reach: the family in every dimension
# ---------------------------------------------------------------------------

# (n, c) for the profile k = (1, 0.5, c (1 + 0.1 t), ..., c (1 + 0.1 t)) on
# [0, 1]: with c < 1 the derivative rows shrink step by step, so the product
# of the pivot sines (the normalized determinant) falls as low as 1e-53 and
# the prefix Grams are graded, while the smallest pivot stays above 4.8e-9
REACH = [(9, 0.1), (9, 0.05), (10, 0.3), (11, 0.5), (12, 0.5), (12, 1.0), (14, 1.0),
         (16, 1.0), (16, 0.3)]


@pytest.mark.parametrize("n, c", REACH)
def test_small_higher_curvatures_classify_and_frame_as_the_family(n, c):
    texts = ["1", "0.5"] + [f"{c}*(1 + 0.1*t)"] * (n - 5)
    curve = synthesize(CurvatureProfile.from_strings(n, texts), (0.0, 1.0))
    ts = np.linspace(0.0, 1.0, 5)
    assert classify(curve, ts).family
    frame = frame_grid(curve, ts)
    want = [np.ones(5), np.full(5, 0.5)] + [c * (1.0 + 0.1 * ts)] * (n - 5)
    error = max(np.max(np.abs(k.value - w)) for k, w in zip(frame.curvatures, want))
    # (16, 0.3) has a pivot of 4.8e-9, and its higher curvatures carry the
    # roundoff that amplifies: it is framed, not held to the bound
    assert error <= 1e-12 or (n, c) == (16, 0.3)


def test_a_reflected_frame_row_fails_the_orientation_cross_check(synth6, monkeypatch):
    import nullcartan.frame as frame_module

    extract = frame_module._jet_frame

    def reflected(base, ts, vectors, k):  # W3 -> -W3 flips det of the frame
        frame = extract(base, ts, vectors, k)
        rows = frame.rows.coeffs.copy()
        rows[..., 3, :] *= -1.0
        return Frame(VecJet(base, rows), ts, frame.curvatures)

    monkeypatch.setattr(frame_module, "_jet_frame", reflected)
    with pytest.raises(DegenerateBasisError, match=r"frame orientation (-?1) disagrees with the "
                       r"derivative basis orientation (-?1) at t=0\.3$") as exc:
        frame_grid(synth6, [0.3, 0.6])
    frame_sign, basis_sign = re.search(r"orientation (-?1) .* orientation (-?1)",
                                       str(exc.value)).groups()
    assert frame_sign != basis_sign
