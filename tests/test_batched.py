"""Grid-batched jets against their single-point forms.

Every batched evaluation must agree with the pointwise one point by point,
and a grid with failing points must raise exactly what a loop over the grid
would raise first.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nullcartan import (
    ArcLengthCurve,
    CurvatureProfile,
    Curve,
    ExprEvaluationError,
    FamilyError,
    HypothesisError,
    InputError,
    PseudoMetric,
    ReparametrizedCurve,
    classify,
    evolute,
    frame_jets,
    jet_eval,
    synthesize,
)
from nullcartan.constructions import EvoluteCurve, InvoluteCurve, involute
from nullcartan.curve import CumulativeIntegral, pointwise_order
from nullcartan.frame import frame_grid

from conftest import expression_trees

# derandomized: the examples are the same on every run, so a tier-1 run
# cannot fail on a draw the previous run did not make
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Expression trees over the full grammar
# ---------------------------------------------------------------------------

trees = expression_trees(st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 3)))
grids = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=12)


def pointwise_outcome(fn, grid):
    """(type, message) of the first error a loop over the grid meets, or None."""
    for t in grid:
        try:
            fn(np.array([t]))
        except Exception as exc:  # noqa: BLE001 - any error is compared
            return type(exc), str(exc)
    return None


def batched_outcome(fn, grid):
    try:
        pointwise_order(fn, grid)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)
    return None


@SETTINGS
@given(tree=trees, grid=grids, order=st.integers(0, 8))
def test_batched_jets_match_pointwise(tree, grid, order):
    points = []
    for t in grid:
        try:
            with np.errstate(all="ignore"):
                points.append(jet_eval(tree, t, order).coeffs)
        except (ExprEvaluationError, OverflowError):
            assume(False)
    want = np.stack(points, axis=1)
    assume(np.all(np.isfinite(want)) and np.max(np.abs(want)) < 1e12)
    with np.errstate(all="ignore"):
        got = jet_eval(tree, np.array(grid), order)
    assert got.coeffs.shape == (order + 1, len(grid))
    scale = np.maximum(np.abs(want), 1.0)
    assert np.all(np.abs(got.coeffs - want) <= 1e-12 * scale)


@SETTINGS
@given(tree=trees, grid=grids)
def test_batched_expression_errors_follow_grid_order(tree, grid):
    def fn(ts):
        with np.errstate(all="ignore"):
            return jet_eval(tree, ts, 3).coeffs

    assert batched_outcome(fn, grid) == pointwise_outcome(fn, grid)


def test_shared_subtrees_and_constants_are_compiled_once():
    from nullcartan.expr import Program, parse

    q = "(s - s^5)/(4*sqrt(15))"
    program = Program((parse(f"{q} + ({q})^2"),))
    # s^5, s - s^5, the division by the folded constant, the square, the sum
    assert len(program) == 5


# ---------------------------------------------------------------------------
# Frames and curves on a grid
# ---------------------------------------------------------------------------

def _assert_jets_close(a, b):
    scale = np.maximum(np.abs(b.coeffs), 1.0)
    assert np.all(np.abs(a.coeffs - b.coeffs) <= 1e-12 * scale)


@pytest.mark.parametrize("fixture", ["golden", "synth6", "synth8"])
@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(raw=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6),
       extra=st.integers(0, 3))
def test_batched_frame_matches_pointwise_frame(fixture, raw, extra, request):
    curve = request.getfixturevalue(fixture)
    a, b = curve.domain
    grid = a + (b - a) * np.array(raw)
    batch = frame_grid(curve, grid, extra_order=extra)
    for i, t in enumerate(grid):
        one = frame_jets(curve, t, extra_order=extra)
        got = batch.at(i)
        for name in ("L1", "L2", "N1", "N2"):
            _assert_jets_close(getattr(got, name), getattr(one, name))
        for w_got, w_one in zip(got.W, one.W):
            _assert_jets_close(w_got, w_one)
        for k_got, k_one in zip(got.curvatures, one.curvatures):
            _assert_jets_close(k_got, k_one)
        assert got.orientation == one.orientation
        assert got.closure_residual == pytest.approx(one.closure_residual, abs=1e-12)


def test_batched_curve_jets_match_pointwise(synth8):
    grid = np.linspace(0.03, 0.97, 11)
    batch = synth8.vec_jets(grid, 12)
    for i, t in enumerate(grid):
        _assert_jets_close(batch.at(i), synth8.vec_jet(t, 12))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(grid=st.permutations([0.1, 0.5, 0.9, 1.5, 0.95, 0.45]))
def test_grid_with_failing_points_raises_the_first_pointwise_error(grid):
    # (1/k3)' = -2 (t - 0.5) / k3^2 is below the slope floor near t = 0.5,
    # while t = 1.5 lies outside the domain and fails the frame first
    curve = _evolute_probe_curve()

    def fn(ts):
        return evolute(curve, ts, min_slope=0.5).sampled.points

    outcome = batched_outcome(fn, grid)
    assert outcome is not None
    assert outcome == pointwise_outcome(fn, grid)


_PROBE = {}


def _evolute_probe_curve():
    if "curve" not in _PROBE:
        profile = CurvatureProfile.from_strings(6, ["0.1", "-0.05", "1 + (t - 0.5)^2"])
        _PROBE["curve"] = synthesize(profile, (0.0, 1.0))
    return _PROBE["curve"]


def test_classify_failure_names_the_first_failing_point():
    # evaluation fails at s = 0.5 and for s <= 0.25; elsewhere the sequences
    # themselves are refused
    curve = Curve.from_strings(["s", "1/(s - 0.5)", "log(s - 0.25)", "s^3", "s^4"],
                               domain=(0.0, 1.0))
    for grid in ([0.5, 0.3, 0.1], [0.1, 0.5], [0.2, 0.5, 0.6], [0.6, 0.1]):
        want = pointwise_outcome(lambda ts: classify(curve, ts), grid)
        with pytest.raises(want[0]) as exc:
            classify(curve, grid)
        assert str(exc.value) == want[1]


def test_arc_length_table_reports_the_first_node_that_is_not_spacelike():
    # <c', c'> = 1 - 16 s^2 <= 0 for s >= 1/4: the table walks its nodes and
    # midpoints in ascending order, and the node 1/4 comes first
    curve = Curve.from_strings(["2*s^2", "0", "s", "0", "0"], domain=(0.0, 1.0))
    with pytest.raises(HypothesisError) as exc:
        InvoluteCurve(curve, 0.0, intervals=8)
    points = CumulativeIntegral.sample_points(0.0, 1.0, 8)
    first = next(t for t in points if 1.0 - 16.0 * t * t <= 0.0)
    assert exc.value.location == first


def test_arc_length_table_reports_a_midpoint_before_a_later_node():
    # <c', c'> = 1 - 36 s^2 <= 0 for s >= 1/6: 8 intervals are one panel on
    # [0, 1], and its Kronrod-only node 0.5 - 0.5 * 0.5860872... (index 4)
    # is the first refused point, ahead of the Gauss node at index 5
    curve = Curve.from_strings(["3*s^2", "0", "s", "0", "0"], domain=(0.0, 1.0))
    with pytest.raises(HypothesisError) as exc:
        InvoluteCurve(curve, 0.0, intervals=8)
    points = CumulativeIntegral.sample_points(0.0, 1.0, 8)
    assert exc.value.location == points[4] == 0.20695638226615443
    assert exc.value.condition == "<c',c'> > 0"


# ---------------------------------------------------------------------------
# Monotone tables
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None, derandomize=True)
@given(a=st.floats(0.0, 5.0), b=st.floats(0.5, 6.0), length=st.floats(0.5, 3.0),
       intervals=st.integers(1, 40),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_newton_inversion_agrees_with_brentq(a, b, length, intervals, fractions):
    table = CumulativeIntegral(lambda t: 1.0 + a * np.sin(b * t) ** 2, 0.0, length,
                               intervals)
    targets = np.array(fractions) * table.total
    got = table.solve(targets)
    for target, t in zip(targets, got):
        i = int(np.clip(np.searchsorted(table.cumulative, target) - 1,
                        0, len(table.nodes) - 2))
        lo, hi = table.nodes[i], table.nodes[i + 1]
        flo, fhi = table(lo) - target, table(hi) - target
        if flo >= 0.0:
            want = lo
        elif fhi <= 0.0:
            want = hi
        else:
            want = brentq(lambda x: table(x) - target, lo, hi, xtol=1e-14)
        assert t == pytest.approx(want, abs=1e-12)
        assert table.solve(float(target)) == t


@pytest.mark.parametrize("intervals", [1, 16, 512])
def test_the_table_reads_every_node_exactly(intervals):
    # the last node b reads the table too, not a quadrature over the last cell
    table = CumulativeIntegral(lambda t: 1.0 + 0.3 * np.sin(3.0 * t) ** 2, 0.0, 2.0,
                               intervals)
    assert np.array_equal(table(table.nodes), table.cumulative)
    curve = Curve.from_strings(["0", "0", "cos(t) + 0.3*sin(3*t)", "sin(t)", "t", "0"],
                               parameter="t", domain=(0.0, 2.0))
    arc = ArcLengthCurve(curve, intervals)
    assert arc.arc_length_of(2.0) == arc.domain[1]


def test_rate_is_evaluated_once_per_table_point(golden):
    seen = []

    class Counting(ReparametrizedCurve):
        def _rate_square(self, t):
            seen.append(len(t))
            return super()._rate_square(t)

    Counting(golden, intervals=64)
    # 64 cells are two panels of 15 Kronrod nodes
    assert sum(seen) == len(CumulativeIntegral.sample_points(*golden.domain, 64)) == 2 * 15


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.floats(-100.0, 100.0), length=st.floats(1e-3, 100.0),
       intervals=st.integers(1, 2048))
def test_the_table_hands_its_integrand_one_strictly_ascending_array(a, length, intervals):
    # a table's rate squares its points in the order given, so its refusal
    # names the first refused point because this array ascends
    calls = []

    def f(t):
        calls.append(t.copy())
        return np.ones_like(t)

    CumulativeIntegral(f, a, a + length, intervals)
    (points,) = calls
    assert points.ndim == 1 and np.all(np.diff(points) > 0.0)
    assert np.array_equal(points, CumulativeIntegral.sample_points(a, a + length, intervals))


def test_nonpositive_rate_names_the_worst_table_point():
    curve = Curve.from_strings(["s^3/6", "0", "s", "s^2/2", "0"], domain=(0.0, 1.0))
    with pytest.raises(FamilyError) as exc:
        ReparametrizedCurve(curve, intervals=16)
    # <a''', a'''> = -1 everywhere: the first table point is the worst
    first = CumulativeIntegral.sample_points(0.0, 1.0, 16)[0]
    assert first == 0.5 - 0.5 * 0.991455371120812639
    assert f"near t={first}:" in str(exc.value)


def test_pseudo_arc_refusal_names_the_first_refused_node():
    # <a''', a'''> = 1 - 4 s^2 is refused past s = 1/2 and is least at s = 1:
    # the refusal names the first refused table point, not the minimum
    curve = Curve.from_strings(["2*s^4/24", "0", "s^3/6", "0", "0"], domain=(0.0, 1.0))
    with pytest.raises(FamilyError) as exc:
        ReparametrizedCurve(curve)
    points = CumulativeIntegral.sample_points(0.0, 1.0, 512)
    first = points[points > 0.5][0]
    assert 0.5 < first < 0.501
    assert f"= {1.0 - 4.0 * first * first:.3e} <= 0 near t={first}:" in str(exc.value)


def test_arc_length_refusal_names_the_first_refused_node():
    # <c', c'> = 1 - 4 s^2 again, refused with a different value at each node
    curve = Curve.from_strings(["s^2", "0", "s", "0", "0"], domain=(0.0, 1.0))
    with pytest.raises(HypothesisError) as exc:
        ArcLengthCurve(curve)
    points = CumulativeIntegral.sample_points(0.0, 1.0, 512)
    first = points[points > 0.5][0]
    assert exc.value.condition == "<c',c'> > 0"
    assert exc.value.location == first
    assert f"<c',c'> = {1.0 - 4.0 * first * first:.3e} at t={first}:" in str(exc.value)


class CountingBase:
    """A curve that counts the ``vec_jets`` calls made on it."""

    def __init__(self, base):
        self.base = base
        self.dimension = base.dimension
        self.domain = base.domain
        self.calls = 0

    def vec_jets(self, ts, order):
        self.calls += 1
        return self.base.vec_jets(ts, order)


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("kind", ["pseudo-arc", "arc length"])
def test_one_jet_evaluates_the_base_once(golden, kind, order):
    if kind == "pseudo-arc":
        base = CountingBase(golden.precompose("u + 0.1*u^2", parameter="u",
                                              domain=(0.0, 1.0)))
        curve = ReparametrizedCurve(base, intervals=64)
    else:
        base = CountingBase(Curve.from_strings(["0", "0", "cos(s)", "sin(s)", "s"],
                                               domain=(0.0, 2.0)))
        curve = ArcLengthCurve(base, intervals=64)
    ss = np.linspace(*curve.domain, 5)[1:-1]
    # the Newton inversion reads its rates off the table's interpolant
    base.calls = 0
    curve.parameter_of(ss)
    assert base.calls == 0
    curve.vec_jets(ss, order)
    assert base.calls == 1


def _written_out_rate(base, k):
    """<c^(k), c^(k)>^(1/(2k)) written out, for k = 1 and k = 3."""
    metric = PseudoMetric(base.dimension)

    def rate(ts):
        coeffs = base.vec_jets(ts, k).coeffs
        dk = 6 * coeffs[3] if k == 3 else coeffs[1]
        return metric.inner(dk, dk) ** (1 / 6 if k == 3 else 1 / 2)

    return rate


@pytest.mark.parametrize("name", ["warped quintic", "evolute", "helix"])
def test_tables_integrate_the_written_out_rate(golden, synth6_evolute, name):
    if name == "warped quintic":
        curve = ReparametrizedCurve(golden.precompose(
            "u + 0.1*u^2 + 0.05*u^3", parameter="u", domain=(0.0, 1.0)))
    elif name == "evolute":
        curve = ArcLengthCurve(EvoluteCurve(synth6_evolute))
    else:
        curve = ArcLengthCurve(Curve.from_strings(["0", "0", "cos(s)", "sin(s)", "s"],
                                                  domain=(0.0, 2.0)))
    k = 3 if isinstance(curve, ReparametrizedCurve) else 1
    oracle = CumulativeIntegral(_written_out_rate(curve.base, k), *curve.base.domain)
    assert np.array_equal(curve._table.cumulative, oracle.cumulative)


# ---------------------------------------------------------------------------
# Table accuracy and error estimate
# ---------------------------------------------------------------------------

def _exp_cos(fixtures, intervals):
    table = CumulativeIntegral(lambda t: np.exp(t) * np.cos(3.0 * t) + 2.0, 0.0, 2.0,
                               intervals)
    return table, table


def _warped_quintic(fixtures, intervals):
    # the quintic is pseudo-arc, so the warp's pseudo-arc is u + c2 u^2 + c3 u^3
    warped = fixtures["golden"].precompose("u + 0.1*u^2 + 0.05*u^3", parameter="u",
                                           domain=(0.0, 1.0))
    rep = ReparametrizedCurve(warped, intervals)
    return rep.pseudo_arc_of, rep._table


def _evolute(fixtures, intervals):
    arc = ArcLengthCurve(EvoluteCurve(fixtures["synth6_evolute"]), intervals)
    return arc.arc_length_of, arc._table


def _helix(fixtures, intervals):
    helix = Curve.from_strings(["0", "0", "cos(s)", "sin(s)", "s"], domain=(0.0, 2.0))
    arc = ArcLengthCurve(helix, intervals)
    return arc.arc_length_of, arc._table


# (table, its closed form or None for the same table on 64x the cells, and
# the error of the 512-cell composite Simpson table that these tables
# replaced, measured the same way against the same reference)
TABLE_CASES = {
    "exp(t) cos(3t) + 2": (_exp_cos, lambda t: np.exp(t) * (np.cos(3.0 * t) + 3.0 * np.sin(
        3.0 * t)) / 10.0 - 0.1 + 2.0 * t, 1.582e-11),
    "warped quintic pseudo-arc": (_warped_quintic,
                                  lambda u: u + 0.1 * u ** 2 + 0.05 * u ** 3, 1.554e-15),
    "evolute of k3 = 1/(1 + t)": (_evolute, None, 2.265e-14),
    "helix": (_helix, lambda t: np.sqrt(2.0) * t, 1.776e-14),
}


@pytest.mark.parametrize("name", TABLE_CASES)
def test_tables_beat_simpson_and_stay_within_their_estimate(golden, synth6_evolute, name):
    case, exact, simpson_error = TABLE_CASES[name]
    fixtures = {"golden": golden, "synth6_evolute": synth6_evolute}
    read, table = case(fixtures, 512)
    # every edge of a 512-cell table, panel or Simpson, and 101 points between
    ts = np.union1d(np.linspace(table.a, table.b, 101), np.linspace(table.a, table.b, 513))
    want = exact(ts) if exact else case(fixtures, 64 * 512)[0](ts)
    error = float(np.max(np.abs(read(ts) - want)))
    assert error <= simpson_error
    assert error <= table.error_estimate


def test_one_panel_is_exact_through_degree_22():
    # K15 integrates x^d exactly through d = 22 and G7 through d = 13, so up
    # to 13 the estimate is the roundoff term alone, and from 14 it is larger
    eps = np.finfo(float).eps
    for d in range(23):
        table = CumulativeIntegral(lambda t: t ** d, 0.0, 1.0, 1)
        assert table.total == pytest.approx(1.0 / (d + 1), rel=4 * eps)
        roundoff = 50.0 * eps * table.total
        if d <= 13:
            assert table.error_estimate == pytest.approx(roundoff, rel=1e-3)
        else:
            assert table.error_estimate > 2.0 * roundoff


@pytest.mark.parametrize("kind", ["arc length", "involute"])
def test_a_dropped_table_frees_its_curve_without_the_cycle_collector(kind):
    # the table keeps no reference to its owner's rate: with the collector
    # off, reference counting alone frees the curve and its base
    base = synthesize(CurvatureProfile.from_strings(6, ["0.15", "-0.05", "1/(1 + t)"]),
                      (-0.7, 1.2))
    ref = weakref.ref(base)
    evo = EvoluteCurve(base)
    curve = ArcLengthCurve(evo) if kind == "arc length" else InvoluteCurve(evo, 0.0)
    gc.disable()
    try:
        del base, evo, curve
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Dense read: each panel's Kronrod interpolant
# ---------------------------------------------------------------------------

def _g7_tail_read(table, f, t):
    """The read that the interpolant replaced, kept as an oracle: a node reads
    the table, any other t adds the 7-point Gauss rule from the edge below."""
    i = np.clip(np.searchsorted(table.nodes, t, side="right") - 1, 0, len(table.nodes) - 1)
    t0 = table.nodes[i]
    value = table.cumulative[i].copy()
    off = np.flatnonzero(t != t0)
    half = 0.5 * (t[off] - t0[off])
    gauss = (t0[off] + half)[:, None] + half[:, None] * CumulativeIntegral._KRONROD_NODES[1::2]
    value[off] += half * np.sum(f(gauss) * CumulativeIntegral._GAUSS_WEIGHTS, axis=1)
    return value


# integrands on [0, 1] harder than the package's, with their primitives from 0
HARD_INTEGRANDS = {
    "1/(1.05 - t)": (lambda t: 1.0 / (1.05 - t), lambda t: np.log(1.05 / (1.05 - t))),
    "sqrt(t + 0.01)": (lambda t: np.sqrt(t + 0.01),
                       lambda t: 2.0 / 3.0 * ((t + 0.01) ** 1.5 - 0.01 ** 1.5)),
    "1/(1.2 - t)": (lambda t: 1.0 / (1.2 - t), lambda t: np.log(1.2 / (1.2 - t))),
    "1 + 0.3 sin(3t)^2": (lambda t: 1.0 + 0.3 * np.sin(3.0 * t) ** 2,
                          lambda t: 1.15 * t - 0.025 * np.sin(6.0 * t)),
    "exp(20t)": (lambda t: np.exp(20.0 * t), lambda t: np.expm1(20.0 * t) / 20.0),
}


@pytest.mark.parametrize("intervals", [64, 512])
@pytest.mark.parametrize("name", HARD_INTEGRANDS)
def test_the_interpolant_reads_no_worse_than_the_gauss_tail(name, intervals):
    f, primitive = HARD_INTEGRANDS[name]
    table = CumulativeIntegral(f, 0.0, 1.0, intervals)
    ts = np.linspace(0.0, 1.0, 2001)
    error = np.max(np.abs(table(ts) - primitive(ts)))
    assert error <= np.max(np.abs(_g7_tail_read(table, f, ts) - primitive(ts)))
    assert error <= table.error_estimate


def test_no_integrand_call_after_construction(golden, monkeypatch):
    seen = []

    def counting(f):
        # the points are the last argument, of a function or of a method
        def g(*args):
            seen.append(len(args[-1]))
            return f(*args)
        return g

    for cls in (ReparametrizedCurve, ArcLengthCurve):
        monkeypatch.setattr(cls, "_rate_square", counting(cls._rate_square))
    table = CumulativeIntegral(counting(HARD_INTEGRANDS["1/(1.2 - t)"][0]), 0.0, 1.0, 64)
    warped = ReparametrizedCurve(golden.precompose("u + 0.1*u^2", parameter="u",
                                                   domain=(0.0, 1.0)), intervals=64)
    helix = Curve.from_strings(["0", "0", "cos(s)", "sin(s)", "s"], domain=(0.0, 2.0))
    arc = ArcLengthCurve(helix, intervals=64)
    inv = InvoluteCurve(helix, 0.5, intervals=64)
    # the build calls each integrand once, at two panels of 15 Kronrod nodes
    assert seen == [30] * 4
    seen.clear()
    ts = np.linspace(0.0, 1.0, 7)
    table.solve(table(ts))
    warped.vec_jets(warped.parameter_of(warped.pseudo_arc_of(ts)), 2)
    arc.vec_jets(arc.parameter_of(arc.arc_length_of(2.0 * ts)), 2)
    inv.arc_length(2.0 * ts)
    assert seen == []
    # involute() builds one table, the default 16 panels, and reads it only
    involute(helix, 0.5, 2.0 * ts)
    assert seen == [16 * 15]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(intervals=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1),
       size=st.integers(1, 300))
def test_a_point_reads_the_same_in_any_batch(intervals, seed, size):
    table = CumulativeIntegral(HARD_INTEGRANDS["sqrt(t + 0.01)"][0], 0.0, 1.0, intervals)
    ts = np.random.default_rng(seed).uniform(0.0, 1.0, size)
    ts[::3] = table.nodes[np.arange(0, size, 3) % len(table.nodes)]
    values = table(ts)
    for j in range(size):
        assert values[j] == table(ts[j:j + 1])[0]


@pytest.mark.parametrize("name", ["1/(1.2 - t)", "1 + 0.3 sin(3t)^2"])
def test_reads_are_continuous_at_the_panel_edges(name):
    f = HARD_INTEGRANDS[name][0]
    table = CumulativeIntegral(f, 0.0, 1.0, 512)
    edges = table.nodes[1:-1]
    below = edges - 1e-13
    # the node value less the rate times the step down from the edge
    want = table.cumulative[1:-1] - f(edges) * (edges - below)
    assert np.max(np.abs(table(below) - want)) <= 1e-14 * (1.0 + table.total)


def test_a_read_within_the_domain_slack_extrapolates_the_last_panel():
    f = HARD_INTEGRANDS["1 + 0.3 sin(3t)^2"][0]
    table = CumulativeIntegral(f, 0.0, 2.0, 512)
    helix = Curve.from_strings(["0", "0", "cos(s)", "sin(s)", "s"], domain=(0.0, 2.0))
    arc = ArcLengthCurve(helix)
    slack = 1e-12 * (1.0 + 0.0 + 2.0)
    bound = 1e-14 * (1.0 + table.total)
    # a point just past b reads the last panel from cumulative[-2], not the
    # table's end plus a further panel
    assert abs(table(2.0 + slack) - (table.total + f(2.0) * slack)) <= bound
    assert abs(table(-slack) + f(0.0) * slack) <= bound
    total = arc.domain[1]
    bound = 1e-14 * (1.0 + total)
    assert abs(arc.arc_length_of(2.0 + slack) - (total + np.sqrt(2.0) * slack)) <= bound
    assert abs(arc.arc_length_of(-slack) + np.sqrt(2.0) * slack) <= bound


def test_a_read_outside_the_domain_names_the_query():
    table = CumulativeIntegral(HARD_INTEGRANDS["1 + 0.3 sin(3t)^2"][0], 0.0, 2.0, 64)
    helix = Curve.from_strings(["0", "0", "cos(s)", "sin(s)", "s"], domain=(0.0, 2.0))
    arc = ArcLengthCurve(helix, 64)
    for read in (table, arc.arc_length_of):
        for t in (2.5, np.nan, np.array([1.0, 2.5])):
            with pytest.raises(InputError, match=r"^parameter (2\.5|nan) outside domain "
                                                 r"\[0\.0, 2\.0\]$"):
                read(t)
    with pytest.raises(InputError, match=r"target nan outside the table range"):
        table.solve(np.nan)
