"""Bertrand, pseudo-sphere, evolute/involute and synthesis tests.

Synthesized curves with prescribed curvatures act as the oracle: their frame
and curvature functions are known inputs, so every theorem-level verdict can
be checked against ground truth.
"""

import gc
import math
import re
import weakref

import numpy as np
import pytest
import sympy

from nullcartan import (
    ArcLengthCurve,
    Curve,
    CurvatureProfile,
    DegenerateBasisError,
    DimensionMismatchError,
    EvoluteCurve,
    Frame,
    HypothesisError,
    InputError,
    MappedCurve,
    PseudoMetric,
    ReparametrizedCurve,
    SampledCurve,
    SingularRecursionError,
    StepSizeError,
    VecJet,
    bertrand_check,
    bertrand_mate,
    cartan_frame_at,
    classify,
    evolute,
    frame_jets,
    frenet_residuals,
    involute,
    involute_frame_check,
    pseudo_arc_reparam,
    pseudo_spherical_test,
    require_family,
    sphere_coefficients,
    standard_initial_frame,
    synthesize,
)
from nullcartan import constructions
from nullcartan.constructions import (
    InvoluteCurve,
    OffsetCurve,
    _expected_frame_gram,
    _frenet_couplings,
    _gram_defect,
    _rk4_increments,
)
from nullcartan.curve import PANEL_CELLS, TABLE_BLOCK
from nullcartan.frame import frame_grid
from nullcartan.metric import DEFAULT_TOL

from conftest import (
    SYNTH_PROFILES,
    golden_mate,
    golden_N1,
    golden_N2,
    random_isometry_frame,
)


# ---------------------------------------------------------------------------
# Bertrand
# ---------------------------------------------------------------------------

def test_golden_bertrand_check(golden):
    verdict = bertrand_check(golden)
    assert verdict.verdict
    assert verdict.max_k1 <= 1e-9
    assert verdict.max_k2 <= 1e-9


def test_golden_mate_matches_closed_form(golden):
    grid = np.linspace(0.0, 1.0, 11)
    result = bertrand_mate(golden, 1.0, grid=grid)
    assert result.report.correspondence_offset == 0.0
    for s, point in zip(grid, result.sampled.points):
        assert np.max(np.abs(point - golden_mate(s, 1.0))) <= 1e-9


def test_mate_continuity_in_mu(golden):
    grid = np.linspace(0.0, 1.0, 5)
    result = bertrand_mate(golden, 1e-8, grid=grid)
    for s, point in zip(grid, result.sampled.points):
        assert np.max(np.abs(point - golden.point(float(s)))) <= 1e-7


def test_mate_frame_offsets(golden):
    # L1bar = L1 + mu N2 and L2bar = L2 + mu N1
    mu = 0.8
    mate = OffsetCurve(golden, mu)
    for s in (0.1, 0.5, 0.9):
        f = cartan_frame_at(golden, s)
        fbar = cartan_frame_at(mate, s)
        assert np.max(np.abs(fbar.L1 - (f.L1 + mu * f.N2))) <= 1e-8
        assert np.max(np.abs(fbar.L2 - (f.L2 + mu * f.N1))) <= 1e-8
        assert np.max(np.abs(fbar.W[0] - f.W[0])) <= 1e-8


def test_mate_regularity_pairing(golden):
    # <d(mate)/ds, N1> = 1 certifies the mate is regular
    m = PseudoMetric(5)
    mate = OffsetCurve(golden, 1.3)
    for s in (0.0, 0.4, 1.0):
        d1 = mate.derivatives(s, 1)[0]
        f = cartan_frame_at(golden, s)
        assert m.inner(d1, f.N1) == pytest.approx(1.0, abs=1e-9)


def test_mate_rejects_zero_mu(golden):
    with pytest.raises(InputError):
        bertrand_mate(golden, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_mu_and_arc_offset_must_be_finite(golden, value):
    with pytest.raises(InputError, match="mu must be finite"):
        bertrand_mate(golden, value, grid=np.linspace(0.1, 0.9, 5))
    circle = Curve.from_strings(["0", "0", "1.5*cos(s)", "1.5*sin(s)", "0"],
                                domain=(0.0, 2.0))
    with pytest.raises(InputError, match="arc_offset must be finite"):
        InvoluteCurve(circle, 0.0, arc_offset=value, intervals=16)


def test_synthesized_bertrand_roundtrip(synth_flat5):
    grid = np.linspace(0.05, 0.95, 9)
    for mu in (-0.5, 0.5, 1.0, 2.0):
        result = bertrand_mate(synth_flat5, mu, grid=grid)
        assert result.report.verdict
        assert result.report.alignment_defect <= 1e-7
        # unwinding the mate with -mu restores the original curve
        back = OffsetCurve(result.mate, -mu)
        for t in grid:
            assert np.max(np.abs(back.point(float(t)) -
                                 synth_flat5.point(float(t)))) <= 1e-7


def test_random_initial_frame_is_still_bertrand():
    rng = np.random.default_rng(77)
    initial = random_isometry_frame(5, rng)
    curve = synthesize(CurvatureProfile.from_strings(5, ["0", "0"]),
                       (0.0, 1.0), initial=initial)
    verdict = bertrand_check(curve, grid=np.linspace(0.05, 0.95, 9))
    assert verdict.verdict


def test_nonzero_curvature_is_refused_and_misaligned():
    profile = CurvatureProfile.from_strings(5, ["0.3", "0"])
    curve = synthesize(profile, (0.0, 1.0))
    grid = np.linspace(0.05, 0.95, 9)
    verdict = bertrand_check(curve, grid=grid)
    assert not verdict.verdict
    assert verdict.max_k1 == pytest.approx(0.3, abs=1e-6)
    with pytest.raises(HypothesisError):
        bertrand_mate(curve, 1.0, grid=grid)
    forced = bertrand_mate(curve, 1.0, grid=grid, force=True)
    assert forced.report.alignment_defect > 1e-3
    assert forced.report.correspondence_offset is None


# ---------------------------------------------------------------------------
# Sphere coefficients and pseudo-sphere test
# ---------------------------------------------------------------------------

def test_sphere_coefficients_constant_k3():
    profile = CurvatureProfile.from_strings(7, ["0", "0", "2", "1.7"])
    assert sphere_coefficients(profile, 0.3) == pytest.approx([0.0, 0.5, 0.0])


def test_sphere_coefficients_closed_form_a3():
    # k3 = 1/(1+t), k4 = 1: a3 = -k3'/(k3^2 k4) = 1 for every t
    profile = CurvatureProfile.from_strings(7, ["0", "0", "1/(1 + t)", "1"])
    for t in (0.0, 0.4, 1.3):
        a = sphere_coefficients(profile, t)
        assert a[0] == 0.0
        assert a[1] == pytest.approx(1.0 + t, rel=1e-12)
        assert a[2] == pytest.approx(1.0, rel=1e-12)


def test_sphere_recursion_matches_symbolic_oracle():
    # n=8: a4 = (a3' + a2 k4)/k5 with a3 = -k3'/(k3^2 k4), a2 = 1/k3,
    # differentiated symbolically by sympy, evaluated numerically
    t = sympy.Symbol("t")
    k3 = 1.5 + sympy.Rational(3, 10) * sympy.sin(t)
    k4 = 1 + sympy.Rational(1, 5) * t
    k5 = 2 - sympy.Rational(3, 10) * t
    a2 = 1 / k3
    a3 = -sympy.diff(k3, t) / (k3**2 * k4)
    a4 = (sympy.diff(a3, t) + a2 * k4) / k5
    want = sympy.lambdify(t, a4)
    profile = CurvatureProfile.from_strings(
        8, ["0.1 + 0.05*t", "-0.2", "1.5 + 0.3*sin(t)", "1 + 0.2*t", "2 - 0.3*t"])
    for tv in (0.1, 0.55, 0.9):
        a = sphere_coefficients(profile, tv)
        assert a[3] == pytest.approx(float(want(tv)), abs=1e-8)


def test_sphere_recursion_singular_curvature():
    profile = CurvatureProfile.from_strings(7, ["0", "0", "1", "0"])
    with pytest.raises(SingularRecursionError) as exc:
        sphere_coefficients(profile, 0.5)
    assert exc.value.index == 4


def test_pseudo_sphere_verdict_true():
    # constant k3 = 1/r with r = 2: center alpha + 2 W4 is stationary
    profile = CurvatureProfile.from_strings(6, ["0.1", "0.05", "0.5"])
    curve = synthesize(profile, (0.0, 1.0))
    grid = np.linspace(0.05, 0.95, 9)
    report = pseudo_spherical_test(curve, grid)
    assert report.is_spherical
    assert report.radius == pytest.approx(2.0, rel=1e-9)
    assert report.max_center_spread <= 1e-5
    assert report.sphere_equation_residual <= 1e-5 * report.radius**2
    assert report.last_coefficient_nonzero


def test_pseudo_sphere_verdict_false(synth6):
    report = pseudo_spherical_test(synth6, np.linspace(0.05, 0.95, 9))
    assert not report.is_spherical


def test_pseudo_sphere_consistency_loop():
    # when the verdict is true: <center - alpha, W_j> reproduces a_{j-2} and
    # the pairings with L1, L2, N1, N2 vanish
    profile = CurvatureProfile.from_strings(8, ["0.1", "-0.1", "0.5", "1", "1.5"])
    curve = synthesize(profile, (0.0, 1.0))
    grid = np.linspace(0.1, 0.9, 7)
    report = pseudo_spherical_test(curve, grid)
    assert report.is_spherical
    m = PseudoMetric(8)
    for t, a_vals in zip(report.grid, report.a_values):
        f = cartan_frame_at(curve, float(t))
        diff = report.center - np.asarray(curve.point(float(t)))
        for j in range(2, 5):
            assert m.inner(diff, f.W[j - 1]) == pytest.approx(a_vals[j - 1], abs=1e-6)
        for v in (f.L1, f.L2, f.N1, f.N2):
            assert abs(m.inner(diff, v)) <= 1e-6


def test_sphere_report_arrays_are_read_only(synth6):
    report = pseudo_spherical_test(synth6, np.linspace(0.1, 0.9, 5))
    for values in (report.a_values, report.radius_sq, report.centers):
        with pytest.raises(ValueError):
            values[0] = 0.0


@pytest.mark.parametrize("grid", [[0.5], [0.5, 0.5]])
def test_a_sphere_verdict_needs_two_distinct_points(synth6, grid):
    # k3 = 1 + t is not constant, but over one point every spread is 0
    with pytest.raises(InputError, match="at least two distinct parameters"):
        pseudo_spherical_test(synth6, grid)
    assert not pseudo_spherical_test(synth6, [0.5, 0.6]).is_spherical


def test_pseudo_sphere_dimension_gate(golden):
    with pytest.raises(HypothesisError):
        pseudo_spherical_test(golden, [0.1, 0.5])


def test_pseudo_sphere_osculating_center_matches_evolute(synth6_evolute):
    # for n = 6 the candidate center alpha + (1/k3) W4 is the evolute point
    grid = np.linspace(-0.4, 0.9, 7)
    report = pseudo_spherical_test(synth6_evolute, grid)
    ev = evolute(synth6_evolute, grid)
    assert np.allclose(report.centers, ev.sampled.points, atol=1e-9)
    assert not report.is_spherical  # k3 is not constant here


# ---------------------------------------------------------------------------
# Evolute
# ---------------------------------------------------------------------------

def test_evolute_speed_identity(synth6_evolute):
    grid = np.linspace(-0.5, 1.0, 21)
    result = evolute(synth6_evolute, grid)
    # (1/k3)' = 1 for k3 = 1/(1+t), so <E',E'> = 1
    assert result.speed_defect <= 1e-5
    m = PseudoMetric(6)
    for t in (0.0, 0.5):
        d1 = result.curve.derivatives(t, 1)[0]
        assert m.inner(d1, d1) == pytest.approx(1.0, abs=1e-9)


def test_evolute_offset_norm(synth6_evolute):
    # <E - alpha, E - alpha> = 1/k3^2 pointwise (W4 is unit spacelike)
    m = PseudoMetric(6)
    grid = np.linspace(-0.5, 1.0, 9)
    result = evolute(synth6_evolute, grid)
    for t, e_point in zip(grid, result.sampled.points):
        diff = e_point - np.asarray(synth6_evolute.point(float(t)))
        want = (1.0 + t) ** 2
        assert m.inner(diff, diff) == pytest.approx(want, rel=1e-9)


class _CountedCurve:
    """A curve that counts the batched jet evaluations asked of it and
    records the jet order of each."""

    def __init__(self, base):
        self.base = base
        self.dimension = base.dimension
        self.domain = base.domain
        self.calls = 0
        self.orders = []

    def vec_jets(self, ts, order):
        self.calls += 1
        self.orders.append(order)
        return self.base.vec_jets(ts, order)


def test_evolute_jets_evaluate_the_curve_once(synth6_evolute):
    # E = alpha + W4/k3 reads alpha off the jets its frame was extracted from
    counted = _CountedCurve(synth6_evolute)
    grid = np.linspace(-0.5, 1.0, 7)
    for order in (0, 1, 3):
        counted.calls = 0
        jets = EvoluteCurve(counted).vec_jets(grid, order)
        assert counted.calls == 1
        assert jets.order == order
    fj = frame_grid(synth6_evolute, grid)
    want = (synth6_evolute.vec_jets(grid, 0).value
            + fj.W[1].value / fj.curvatures[2].value[:, None])
    assert np.allclose(jets.value, want, rtol=0, atol=1e-12)


def test_evolute_jets_ask_for_no_deeper_frames_than_they_use(synth6_evolute):
    # W4 and k3 come out of the extraction at order 2 + extra_order, and the
    # extraction reads the curve to order n + 2 + extra_order
    counted = _CountedCurve(synth6_evolute)
    for order in range(6):
        counted.orders.clear()
        assert EvoluteCurve(counted).vec_jets([0.1, 0.4], order).order == order
        assert counted.orders == [8 + max(-1, order - 2)]


def test_constructions_ask_for_no_deeper_frames_than_they_read(synth6, synth8,
                                                               synth6_evolute, monkeypatch):
    # frame_grid reads the curve to order n + 2 + extra_order; the sphere
    # recursion reads k3 to order n - 6, which extra_order = 0 covers (k_c at
    # n - 1 - c), and the evolute sample W4 and k3 to order 1, which
    # extra_order = -1 covers (rows at 1, k3 at n - 5)
    grid = np.linspace(0.1, 0.9, 5)
    for curve in (synth6, synth8):
        counted = _CountedCurve(curve)
        pseudo_spherical_test(counted, grid)
        assert counted.orders == [curve.dimension + 2]
    counted = _CountedCurve(synth6_evolute)
    evolute(counted, grid)
    assert counted.orders == [7]

    # the extra orders asked for before (n for the sphere; 2, then 0, for
    # the evolute and the round trip's involute, whose arc table reads the
    # evolute's jets at order 1) change no output bit
    def round_trip():
        ev = evolute(synth6_evolute, grid)
        return involute(ev.curve, grid[0], grid, arc_offset=1.0 + grid[0])

    runs = {"sphere6": (6, lambda: pseudo_spherical_test(synth6, grid)),
            "sphere8": (8, lambda: pseudo_spherical_test(synth8, grid)),
            "evolute": (2, lambda: evolute(synth6_evolute, grid)),
            "evolute0": (0, lambda: evolute(synth6_evolute, grid)),
            "involute": (0, round_trip)}
    real = constructions.frame_grid
    for name, (old, run) in runs.items():
        want = run()

        def deeper(curve, ts, extra_order=0):
            return real(curve, ts, max(old, extra_order))

        monkeypatch.setattr(constructions, "frame_grid", deeper)
        got = run()
        monkeypatch.undo()
        fields = (["sampled", "speed_defect", "min_abs_slope"] if name.startswith("evolute")
                  else ["sampled", "arc_table"] if name == "involute" else
                  ["a_values", "radius_sq", "centers", "is_spherical", "radius", "center",
                   "last_coefficient_nonzero", "max_radius_spread", "max_center_spread"])
        for field in fields:
            if field == "arc_table":
                a, b = (r.curve._arc._table.cumulative for r in (got, want))
            else:
                a, b = getattr(got, field), getattr(want, field)
            if field == "sampled":
                a, b = a.points, b.points
            assert np.array_equal(a, b), (name, field)


GRID7 = np.linspace(0.1, 0.7, 7)
# every public entry that takes a base curve, called on a non-curve x
CURVE_ENTRIES = {
    "classify": lambda x: classify(x, GRID7),
    "require_family": lambda x: require_family(x, GRID7),
    "pseudo_arc_reparam": lambda x: pseudo_arc_reparam(x, 9),
    "frame_grid": lambda x: frame_grid(x, GRID7),
    "frame_jets": lambda x: frame_jets(x, 0.3),
    "cartan_frame_at": lambda x: cartan_frame_at(x, 0.3),
    "frenet_residuals": lambda x: frenet_residuals(x, GRID7),
    "bertrand_check": lambda x: bertrand_check(x, GRID7),
    "bertrand_mate": lambda x: bertrand_mate(x, 0.5, GRID7),
    "pseudo_spherical_test": lambda x: pseudo_spherical_test(x, GRID7),
    "evolute": lambda x: evolute(x, GRID7),
    "involute": lambda x: involute(x, 0.1, GRID7),
    "involute_frame_check": lambda x: involute_frame_check(x, GRID7),
    "EvoluteCurve": EvoluteCurve,
    "InvoluteCurve": lambda x: InvoluteCurve(x, 0.1),
    "OffsetCurve": lambda x: OffsetCurve(x, 0.5),
    "ReparametrizedCurve": ReparametrizedCurve,
    "ArcLengthCurve": ArcLengthCurve,
    "MappedCurve": lambda x: MappedCurve(x, "s", (0.1, 0.7)),
}


@pytest.mark.parametrize("entry", list(CURVE_ENTRIES))
@pytest.mark.parametrize("kind", ["sampled", "object"])
def test_a_non_curve_base_is_refused_naming_its_type(entry, kind):
    # a SampledCurve holds points only: it has dimension and domain, no vec_jets
    if kind == "sampled":
        x = SampledCurve(np.linspace(0.0, 1.0, 6), np.ones((6, 6)))
        name, lacks = "SampledCurve", "vec_jets"
    else:
        x, name, lacks = object(), "object", "dimension, domain, vec_jets"
    with pytest.raises(InputError, match=f"^{name} is not a curve: it lacks {lacks}$"):
        CURVE_ENTRIES[entry](x)


def test_a_duck_typed_curve_is_a_base(synth6, synth6_evolute):
    # anything with dimension, domain and vec_jets is a curve to every entry
    grid = np.linspace(0.1, 0.9, 5)
    assert classify(_CountedCurve(synth6), grid).family
    assert frame_grid(_CountedCurve(synth6), grid).rows.coeffs.shape[1] == 5
    E = EvoluteCurve(_CountedCurve(synth6_evolute))
    bases = [E, InvoluteCurve(_CountedCurve(E), 0.1), OffsetCurve(_CountedCurve(synth6), 0.5),
             ReparametrizedCurve(_CountedCurve(synth6)), ArcLengthCurve(_CountedCurve(E)),
             MappedCurve(_CountedCurve(synth6), "s", (0.1, 0.7))]
    for curve in bases:
        assert isinstance(curve.base, _CountedCurve)
        assert curve.vec_jets(grid[:2], 1).order == 1


def test_evolute_extracts_frames_once(synth6_evolute, monkeypatch):
    # the curvature gates and the evolute jets share one extraction
    import nullcartan.constructions as constructions

    calls = []
    original = constructions.frame_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(constructions, "frame_grid", counted)
    evolute(synth6_evolute, np.linspace(-0.5, 1.0, 9))
    assert len(calls) == 1


def test_cached_evolute_jets_are_read_only(synth6_evolute):
    # the lru cache hands every caller the same jet, so none may change it
    E = EvoluteCurve(synth6_evolute)
    before = E.point(0.3)
    with pytest.raises(ValueError):
        E.vec_jet(0.3, 0).coeffs[0, 0] = 99.0
    assert np.array_equal(E.point(0.3), before)


def counted_frame_grid(monkeypatch):
    """Route constructions.frame_grid through a recorder of its grids."""
    calls = []
    original = constructions.frame_grid

    def counted(curve, ts, extra_order=0):
        calls.append((np.array(ts), extra_order))
        return original(curve, ts, extra_order)

    monkeypatch.setattr(constructions, "frame_grid", counted)
    return calls


EVOLUTE_GRID = np.linspace(-0.5, 1.0, 9)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_an_evolute_answers_its_grid_from_its_frame_pass(synth6_evolute, order, monkeypatch):
    # the held pass has rows at order 1 (extra_order -1): it serves orders 0
    # and 1, and order 2 is one extraction with extra_order 0
    ev = evolute(synth6_evolute, EVOLUTE_GRID)
    want = EvoluteCurve(synth6_evolute).vec_jets(EVOLUTE_GRID, order)
    calls = counted_frame_grid(monkeypatch)
    # the same floats in another array, as the round trip's involute passes them
    ts = np.array(EVOLUTE_GRID.tolist())
    got = ev.curve.vec_jets(ts, order)
    if order <= 1:
        assert calls == []
    else:
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], ts) and calls[0][1] == 0
    assert np.array_equal(got.coeffs, want.coeffs)
    assert got.base is ts


@pytest.mark.parametrize("grid, order", [(EVOLUTE_GRID[:-1], 1), (EVOLUTE_GRID + 0.01, 0),
                                         (EVOLUTE_GRID[::-1], 2), (EVOLUTE_GRID, 3)])
def test_an_evolute_extracts_frames_off_its_grid(synth6_evolute, grid, order, monkeypatch):
    ev = evolute(synth6_evolute, EVOLUTE_GRID)
    want = EvoluteCurve(synth6_evolute).vec_jets(grid, order)
    calls = counted_frame_grid(monkeypatch)
    got = ev.curve.vec_jets(grid, order)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], grid) and calls[0][1] == max(-1, order - 2)
    assert np.array_equal(got.coeffs, want.coeffs)


def test_a_directly_built_evolute_carries_no_frame_pass(synth6_evolute, monkeypatch):
    E = EvoluteCurve(synth6_evolute)
    calls = counted_frame_grid(monkeypatch)
    for order in (0, 1, 2):
        E.vec_jets(EVOLUTE_GRID, order)
    assert len(calls) == 3


def test_a_held_frame_pass_is_read_only_and_its_jets_are_fresh(synth6_evolute):
    ev = evolute(synth6_evolute, EVOLUTE_GRID)
    grid, fj = ev.curve._frames
    for array in (grid, fj.rows.coeffs, fj.closure_residual, fj.orientation,
                  *(k.coeffs for k in fj.curvatures)):
        assert not array.flags.writeable
    first = ev.curve.vec_jets(EVOLUTE_GRID, 2)
    want = first.coeffs.copy()
    first.coeffs[:] = 99.0
    assert np.array_equal(ev.curve.vec_jets(EVOLUTE_GRID, 2).coeffs, want)


def test_an_evolute_curve_dies_with_its_result(synth6_evolute):
    # the frame pass belongs to the curve: nothing module-level keeps it
    ev = evolute(synth6_evolute, EVOLUTE_GRID)
    ev.curve.vec_jets(EVOLUTE_GRID, 1)
    ref = weakref.ref(ev.curve)
    del ev
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("min_slope", [math.nan, math.inf, -1.0, 0.0, -math.inf])
def test_evolute_refuses_a_min_slope_that_is_not_finite_and_positive(
        synth6_evolute, min_slope, monkeypatch):
    # nan raised a false HypothesisError; a negative value turned the gate off
    calls = counted_frame_grid(monkeypatch)
    with pytest.raises(InputError, match="min_slope must be finite and positive"):
        evolute(synth6_evolute, EVOLUTE_GRID, min_slope=min_slope)
    assert calls == []


def test_involute_frame_check_pivots_reuse_the_derivative_norms(unit_speed_evolute):
    # the norms _derivative_rows returns are, bit for bit, those of the slice
    # the independence gate reads, so its pivots and min_pivot are unchanged
    from nullcartan.curve import _derivative_rows
    from nullcartan.metric import _span_qr

    for m in (1, 7, 61, 240):
        s = np.linspace(0.5, 2.0, m)
        d, norms = _derivative_rows(unit_speed_evolute.vec_jets(s, 6), 6)
        want = _span_qr(d[:, 1:6], "raw")[1]
        assert np.array_equal(_span_qr(d[:, 1:6], "raw", norms[:, 1:6])[1], want)
        if m <= 61:
            report = involute_frame_check(unit_speed_evolute, s)
            assert report.hypothesis_evidence["min_pivot"] == float(np.min(want.min(axis=-1)))


def test_evolute_refuses_constant_k3():
    profile = CurvatureProfile.from_strings(6, ["0.1", "0.05", "0.5"])
    curve = synthesize(profile, (0.0, 1.0))
    with pytest.raises(HypothesisError) as exc:
        evolute(curve, np.linspace(0.1, 0.9, 5))
    assert exc.value.condition == "(1/k3)' != 0"


def test_evolute_dimension_gate(golden):
    with pytest.raises(HypothesisError) as exc:
        evolute(golden, [0.1, 0.5])
    assert exc.value.condition == "dimension == 6"


def test_theorems_refuse_the_wrong_dimension(golden, synth6):
    with pytest.raises(HypothesisError) as exc:
        bertrand_check(synth6)
    assert exc.value.condition == "dimension == 5"
    with pytest.raises(HypothesisError) as exc:
        involute_frame_check(golden, [0.1, 0.5])
    assert exc.value.condition == "dimension == 6"


def test_profiles_and_initial_frames_must_fit_the_dimension():
    with pytest.raises(DimensionMismatchError, match="dimension >= 5"):
        CurvatureProfile.from_strings(4, ["1"])
    profile6 = CurvatureProfile.from_strings(6, SYNTH_PROFILES[6])
    with pytest.raises(DimensionMismatchError, match=r"must be \(7, 6\), got \(6, 5\)"):
        synthesize(profile6, (0.0, 1.0), initial=standard_initial_frame(5))


# ---------------------------------------------------------------------------
# Involute
# ---------------------------------------------------------------------------

def test_involute_of_straight_line_collapses():
    line = Curve.from_strings(["0", "0", "s", "0", "0"], domain=(0.0, 2.0))
    result = involute(line, 0.0, np.linspace(0.0, 2.0, 9))
    assert np.max(np.abs(result.sampled.points)) <= 1e-12


def test_involute_of_circle_matches_classical_form():
    R = 1.5
    circle = Curve.from_strings(
        ["0", "0", f"{R}*cos(s)", f"{R}*sin(s)", "0"], domain=(0.0, 2.0))
    grid = np.linspace(0.0, 2.0, 9)
    result = involute(circle, 0.0, grid)
    for t, point in zip(grid, result.sampled.points):
        want = np.array([0.0, 0.0,
                         R * (math.cos(t) + t * math.sin(t)),
                         R * (math.sin(t) - t * math.cos(t)), 0.0])
        assert np.max(np.abs(point - want)) <= 1e-8


def test_involute_refuses_non_spacelike():
    timelike = Curve.from_strings(["s", "0", "0.5*s", "0", "0"], domain=(0.0, 1.0))
    with pytest.raises(HypothesisError):
        involute(timelike, 0.0, np.linspace(0.0, 1.0, 5))


def test_involute_is_freed_after_a_point_query():
    # single-point queries cache nothing that keeps the curve alive
    circle = Curve.from_strings(["0", "0", "1.5*cos(s)", "1.5*sin(s)", "0"],
                                domain=(0.0, 2.0))
    inv = InvoluteCurve(circle, 0.0, intervals=16)
    inv.vec_jet(0.5, 2)
    ref = weakref.ref(inv)
    del inv
    gc.collect()
    assert ref() is None


def test_involute_arc_length_on_a_grid_matches_point_queries(synth6_evolute):
    # the involute command reads its s column in one array call
    ev = evolute(synth6_evolute, np.linspace(-0.5, 1.0, 5))
    inv = InvoluteCurve(ev.curve, -0.5, arc_offset=0.7)
    grid = np.linspace(-0.7, 1.2, 13)
    assert inv.arc_length(grid).tolist() == [inv.arc_length(float(t)) for t in grid]


def test_evolute_involute_round_trip(synth6_evolute):
    # Unwinding the evolute from the arc-length-matched point restores alpha
    grid = np.linspace(-0.5, 1.0, 21)
    ev = evolute(synth6_evolute, grid)
    t0 = float(grid[0])
    offset = 1.0 + t0  # 1/k3 at the base point
    inv = involute(ev.curve, t0, grid, arc_offset=offset)
    sup = max(np.max(np.abs(inv.sampled.points[i] -
                            np.asarray(synth6_evolute.point(float(t)))))
              for i, t in enumerate(grid))
    assert sup <= 1e-5


# ---------------------------------------------------------------------------
# Involute frame check (the reverse correspondence)
# ---------------------------------------------------------------------------

def test_involute_frame_check_k3_is_reciprocal_arc(unit_speed_evolute):
    grid = np.linspace(0.5, 2.0, 7)
    report = involute_frame_check(unit_speed_evolute, grid)
    assert report.k3_max_rel_error <= 1e-4
    assert report.w4_sign in (-1, 1)
    assert report.w4_alignment_defect <= 1e-4
    assert report.evolute_match <= 1e-4
    assert report.involute_null_defect <= 1e-9
    assert report.third_norm_defect <= 1e-9


def test_the_involute_check_frames_on_a_table_within_its_estimate(unit_speed_evolute,
                                                                  monkeypatch):
    # the pseudo-arc table the check frames on, read at 101 seeded points off
    # its nodes, against the same table on 64x the cells
    built = []

    class Recorded(ReparametrizedCurve):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(constructions, "ReparametrizedCurve", Recorded)
    involute_frame_check(unit_speed_evolute, np.linspace(0.5, 2.0, 7))
    (rep,) = built
    table = rep._table
    cells = (len(table.nodes) - 1) * PANEL_CELLS
    reference = ReparametrizedCurve(rep.base, intervals=64 * cells)
    ts = np.random.default_rng(0).uniform(table.a, table.b, 101)
    error = float(np.max(np.abs(rep.pseudo_arc_of(ts) - reference.pseudo_arc_of(ts))))
    assert error <= table.error_estimate


def test_involute_frame_check_nontrivial_reparametrization():
    # k3 = 1/(1+t)^2 makes the involute's pseudo-arc a genuine 1/3-power law
    profile = CurvatureProfile.from_strings(6, ["0.1", "-0.04", "1/(1 + t)^2"])
    curve = synthesize(profile, (-0.5, 0.9), step=1e-3)
    ev = evolute(curve, np.linspace(-0.4, 0.8, 9))
    c = MappedCurve(ev.curve, "sqrt(s) - 1", (0.36, 3.2))
    report = involute_frame_check(c, np.linspace(0.5, 2.0, 7))
    assert report.k3_max_rel_error <= 1e-4
    assert report.evolute_match <= 1e-4


def test_involute_span_matches_tangent_derivatives(unit_speed_evolute):
    # span{L1,L2,W3,N2,N1} of the involute = span{T',...,T^(5)} of c
    c = unit_speed_evolute
    inv = InvoluteCurve(c, c.domain[0], arc_offset=c.domain[0], unit_speed=True)
    rep = ReparametrizedCurve(inv, intervals=192)
    s = 1.2
    fj = frame_jets(rep, rep.pseudo_arc_of(s))
    frame_rows = [fj.L1.value, fj.L2.value, fj.W[0].value, fj.N2.value, fj.N1.value]
    t_derivs = c.derivatives(s, 6)[1:]  # T', ..., T^(5) with T = c'
    stacked = np.vstack(frame_rows + t_derivs)
    assert np.linalg.matrix_rank(stacked, tol=1e-7) == 5


def test_involute_frame_check_gates():
    spacelike = Curve.from_strings(["0", "0", "2*cos(s)", "sin(s)", "0", "0"],
                                   domain=(0.5, 2.0))
    with pytest.raises(HypothesisError) as exc:
        involute_frame_check(spacelike, np.linspace(0.6, 1.9, 5))
    assert exc.value.condition == "<c',c'> = 1"
    with pytest.raises(HypothesisError) as exc2:
        involute_frame_check(spacelike, np.linspace(-0.5, 1.0, 4))
    assert exc2.value.condition == "s > 0"


def test_involute_frame_check_refuses_the_first_failing_point():
    # 0.6 fails <c',c'> = 1 before the grid leaves the domain at 2.5
    spacelike = Curve.from_strings(["0", "0", "2*cos(s)", "sin(s)", "0", "0"],
                                   domain=(0.5, 2.0))
    with pytest.raises(HypothesisError, match=re.escape("at s=0.6: parameter is not arc")) as exc:
        involute_frame_check(spacelike, [0.6, 1.0, 2.5])
    assert exc.value.condition == "<c',c'> = 1"
    assert exc.value.location == 0.6


def test_involute_frame_check_refuses_an_overflowing_derivative():
    # the derivative rows come from the reader classify and frame_grid use,
    # so an overflow is a numerical failure, not a failed hypothesis
    curve = Curve.from_strings(["s", "0", "0", "0", "0", "1e306*s^6"], domain=(0.0, 2.0))
    with np.errstate(all="ignore"), pytest.raises(DegenerateBasisError, match="overflows"):
        involute_frame_check(curve, [0.5, 1.0])


class DependentSixth:
    """``base`` whose Taylor coefficient of order 6 at the one parameter
    ``at`` is a combination of those of orders 2 to 5, so c^(6) lies in
    span{c'', ..., c^(5)} there and nowhere else."""

    def __init__(self, base, at):
        self.base, self.at = base, at
        self.dimension, self.domain = base.dimension, base.domain

    def vec_jets(self, ts, order):
        vj = self.base.vec_jets(ts, order)
        coeffs = vj.coeffs.copy()
        hit = np.asarray(ts) == self.at
        if order >= 6:
            coeffs[6, hit] = coeffs[2, hit] - 0.5 * coeffs[3, hit] + 2.0 * coeffs[5, hit]
        return VecJet(vj.base, coeffs)


def test_involute_frame_check_refuses_a_dependent_sixth_derivative(unit_speed_evolute):
    s = np.linspace(0.5, 2.0, 7)
    message = re.escape("{c'',...,c^(6)} is linearly dependent at s=1.25")
    with pytest.raises(HypothesisError, match=message) as exc:
        involute_frame_check(DependentSixth(unit_speed_evolute, s[3]), s)
    assert exc.value.condition == "independent derivatives"
    assert exc.value.location == s[3]


def test_involute_min_pivot_is_the_least_relative_qr_pivot(unit_speed_evolute):
    # recomputed point by point: |R_ii| / |c^(i+1)| of one QR of c'', ..., c^(6)
    s = np.linspace(0.5, 2.0, 7)
    evidence = involute_frame_check(unit_speed_evolute, s).hypothesis_evidence
    pivots = []
    for t in s:
        D = np.array(unit_speed_evolute.derivatives(t, 6)[1:])
        R = np.linalg.qr(D.T, mode="r")
        pivots.append(np.abs(np.diag(R)) / np.linalg.norm(D, axis=1))
    assert evidence["min_pivot"] == pytest.approx(np.min(pivots), rel=1e-9)
    assert evidence["min_pivot"] >= DEFAULT_TOL
    assert set(evidence) == {"min_s", "unit_speed", "c2_null", "min_eta_sq", "min_pivot"}


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_frame_state_is_read_only(synth6):
    # frame states served by the curve must not alias its integration table
    for t in (synth6.domain[0], 0.5, 0.12345):
        before = synth6.point(t)
        state = synth6.frame_state(t)
        with pytest.raises(ValueError):
            state.alpha[:] = 99.0
        with pytest.raises(ValueError):
            state.W[0][0] = 99.0
        assert np.array_equal(synth6.point(t), before)
        assert np.array_equal(synth6.frame_state(t).alpha, before)


def test_flat_synthesis_is_polynomial(synth_flat5):
    # k1 = k2 = 0 integrates to a degree-5 polynomial orbit: alpha^(6) = 0
    # and N1 is constant
    d = synth_flat5.derivatives(0.5, 6)
    assert np.max(np.abs(d[5])) <= 1e-10
    f1 = cartan_frame_at(synth_flat5, 0.2)
    f2 = cartan_frame_at(synth_flat5, 0.8)
    assert np.allclose(f1.N1, f2.N1, atol=1e-10)
    assert abs(f1.curvatures[0]) <= 1e-12 and abs(f1.curvatures[1]) <= 1e-12


def test_synthesis_reproduces_golden_curve(golden):
    from conftest import golden_L1, golden_L2, golden_W3
    initial = Frame(np.stack([golden.point(0.0), golden_L1(0.0), golden_L2(0.0),
                              golden_W3(0.0), golden_N2(0.0), golden_N1(0.0)]))
    curve = synthesize(CurvatureProfile.from_strings(5, ["0", "0"]),
                       (0.0, 1.0), step=1e-3, initial=initial)
    for t in np.linspace(0.0, 1.0, 11):
        assert np.max(np.abs(curve.point(float(t)) -
                             golden.point(float(t)))) <= 1e-7


def test_synthesis_defect_scales_fourth_order():
    profile = CurvatureProfile.from_strings(6, ["1.5", "-1", "2 + sin(t)"])
    coarse = synthesize(profile, (0.0, 1.0), step=0.02, defect_limit=1.0)
    fine = synthesize(profile, (0.0, 1.0), step=0.01, defect_limit=1.0)
    assert coarse.max_gram_defect > 1e-12  # above the roundoff floor
    assert coarse.max_gram_defect / fine.max_gram_defect >= 8.0


def test_synthesis_defect_growth_roughly_linear_in_length():
    profile = CurvatureProfile.from_strings(6, ["1.5", "-1", "2 + sin(t)"])
    short = synthesize(profile, (0.0, 0.5), step=0.02, defect_limit=1.0)
    long = synthesize(profile, (0.0, 1.0), step=0.02, defect_limit=1.0)
    assert long.max_gram_defect <= 4.0 * max(short.max_gram_defect, 1e-14)


def test_synthesis_step_failure():
    profile = CurvatureProfile.from_strings(6, ["2", "-2", "3"])
    with pytest.raises(StepSizeError) as exc:
        synthesize(profile, (0.0, 2.0), step=0.4)
    assert "halve" in str(exc.value)


def test_synthesis_fails_fast_at_the_breach():
    # the frame grows until the Gram gate breaks; the run stops at the block
    # where it broke instead of integrating all of [0, 100] first
    profile = CurvatureProfile.from_strings(6, ["1", "2", "20"])
    with pytest.raises(StepSizeError) as exc:
        synthesize(profile, (0.0, 100.0))
    message = str(exc.value)
    assert "halve" in message
    breach = re.search(r"at t=(\S+) ", message)
    assert breach is not None, message
    assert 0.0 <= float(breach.group(1)) <= 10.0


def test_synthesis_gate_rejects_a_nan_defect():
    # h^4 k^4 overflows on the very first step, so its state is NaN before
    # any finite defect could break the gate; a NaN initial frame fails at t = a
    profile = CurvatureProfile.from_strings(6, ["1e300", "1e300", "1e300"])
    with pytest.raises(StepSizeError, match=r"defect nan at t=0\.5 "):
        synthesize(profile, (0.0, 1.0), step=0.5)
    state = standard_initial_frame(6).rows.copy()
    state[2, 3] = np.nan  # a component of L2
    profile = CurvatureProfile.from_strings(6, ["1", "2", "3"])
    with pytest.raises(StepSizeError, match=r"defect nan at t=0 "):
        synthesize(profile, (0.0, 1.0), step=0.5,
                   initial=Frame(state))


@pytest.mark.parametrize("limit", [float("nan"), -1.0, 0.0])
def test_defect_limit_must_be_positive(limit):
    with pytest.raises(InputError, match="defect_limit must be positive"):
        synthesize(CurvatureProfile.from_strings(6, ["1", "2", "3"]), (0.0, 1.0),
                   step=0.1, defect_limit=limit)


def frenet_rhs(k, F):
    """Frenet right-hand side spelled out row by row, the oracle for
    synthesis: F holds the rows (alpha, L1, L2, W3, N2, N1, W4, ...) and
    k[i - 1] is k_i."""
    n = F.shape[1]
    alpha, L1, L2, W3, N2, N1 = range(6)
    d = np.empty_like(F)
    d[alpha] = F[L1]                                         # alpha' = L1
    d[L1] = F[L2]                                            # L1' = L2
    d[L2] = F[W3]                                            # L2' = W3
    d[W3] = -k[0] * F[L2] + F[N2]                            # W3' = -k1 L2 + N2
    d[N2] = k[1] * F[L1] + F[N1] - k[0] * F[W3]              # N2' = k2 L1 + N1 - k1 W3
    d[N1] = k[1] * F[L2] + (k[2] * F[6] if n >= 6 else 0.0)  # N1' = k2 L2 + k3 W4
    for i in range(4, n - 1):  # W_i sits in row i + 2
        row = i + 2
        if i == 4:
            dW = -k[2] * F[L1]                               # W4' = -k3 L1 + k4 W5
            if n >= 7:
                dW = dW + k[3] * F[7]
        else:
            dW = -k[i - 2] * F[row - 1]                      # W_i' = -k_{i-1} W_{i-1}
            if i + 1 <= n - 2:
                dW = dW + k[i - 1] * F[row + 1]              #        + k_i W_{i+1}
        d[row] = dW
    return d


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_generator_matches_spelled_out_rhs(n):
    # the coupling tensor read off the Frenet table is the oracle's system
    rng = np.random.default_rng(n)
    P = _frenet_couplings(n)
    for _ in range(3):
        k = rng.normal(size=n - 3)
        F = rng.normal(size=(n + 1, n))
        A = np.einsum("c,cij->ij", np.concatenate(([1.0], k)), P)
        assert np.max(np.abs(A @ F - frenet_rhs(k, F))) <= 1e-14


def test_synthesis_stops_evaluating_curvatures_at_the_breach(monkeypatch):
    # the gate breaks near t = 4.4; curvatures past the failing block are
    # never evaluated
    seen = []
    values = CurvatureProfile.values

    def recorded(self, t):
        seen.append(np.max(t))
        return values(self, t)

    monkeypatch.setattr(CurvatureProfile, "values", recorded)
    profile = CurvatureProfile.from_strings(6, ["1", "2", "20"])
    with pytest.raises(StepSizeError):
        synthesize(profile, (0.0, 100.0))
    assert seen and max(seen) <= 10.0


def oracle_rk4_step(profile, t, state, h):
    """One classical RK4 step, stage by stage, with the spelled-out system."""
    k0, km, k1 = (profile.values(s) for s in (t, t + h / 2, t + h))
    s1 = frenet_rhs(k0, state)
    s2 = frenet_rhs(km, state + h / 2 * s1)
    s3 = frenet_rhs(km, state + h / 2 * s2)
    s4 = frenet_rhs(k1, state + h * s3)
    return state + h / 6 * (s1 + 2 * s2 + 2 * s3 + s4)


def oracle_table(profile, a, b, step):
    """Node times a + i*step (the last one b) and the states that stagewise
    RK4 steps reach on them from the standard initial frame."""
    ts = [a + i * step for i in range(int((b - a) / step) + 1)] + [b]
    states = [standard_initial_frame(profile.dimension).rows]
    for t0, t1 in zip(ts, ts[1:]):
        states.append(oracle_rk4_step(profile, t0, states[-1], t1 - t0))
    return ts, np.array(states)


@pytest.mark.parametrize("n, curvatures", [
    (5, ["0.3 + 0.2*t", "-0.4"]),
    (6, ["1.5", "-1", "2 + sin(t)"]),
    (7, ["0.5", "0.2*t", "1 + 0.1*t^2", "-0.7"]),
    (8, ["0.4", "-0.3", "1.2", "0.5 + 0.2*cos(t)", "0.8"]),
])
def test_synthesis_matches_stagewise_rk4_oracle(n, curvatures):
    # more than one block of steps, and a short last step
    a, b, step = -0.2, 2.7533, 0.01
    profile = CurvatureProfile.from_strings(n, curvatures)
    curve = synthesize(profile, (a, b), step=step)
    ts, states = oracle_table(profile, a, b, step)
    assert len(ts) > 257 and ts[-1] - ts[-2] < step / 2
    assert np.array_equal(curve._ts, ts)
    assert np.max(np.abs(curve._states - states)) <= 1e-13
    # the gate's maximum covers every state, across blocks
    metric = PseudoMetric(n)
    assert curve.max_gram_defect == pytest.approx(
        float(np.max(_gram_defect(states, metric))), rel=1e-6)
    # off-node queries take one batched step from the node below
    grid = np.linspace(a, b, 23)[1:-1] + 0.0037
    below = np.searchsorted(ts, grid, side="right") - 1
    want = np.array([oracle_rk4_step(profile, ts[i], states[i], t - ts[i])
                     for i, t in zip(below, grid)])
    jets = curve.vec_jets(grid, 1)
    assert np.max(np.abs(jets.coeffs[0] - want[:, 0])) <= 1e-13
    assert np.max(np.abs(jets.coeffs[1] - want[:, 1])) <= 1e-13
    for t, w in zip(grid, want):
        assert np.max(np.abs(curve.point(t) - w[0])) <= 1e-13
        assert np.max(np.abs(curve.frame_state(t).rows - w)) <= 1e-13


@pytest.mark.parametrize("steps", [1, 15, 16, 17, 255, 256, 257, 513])
def test_synthesis_matches_the_oracle_at_scan_edges(steps):
    # step counts at the edges of the scan's chunks (SCAN_CHUNK = 16 steps)
    # and of the gate's blocks (TABLE_BLOCK = 256 steps), each with a short
    # last step
    a, step = -0.2, 0.01
    b = a + (steps - 0.63) * step
    profile = CurvatureProfile.from_strings(6, ["1.5", "-1", "2 + sin(t)"])
    curve = synthesize(profile, (a, b), step=step)
    ts, states = oracle_table(profile, a, b, step)
    assert len(ts) == steps + 1 and ts[-1] - ts[-2] < step / 2
    assert np.array_equal(curve._ts, ts)
    assert np.max(np.abs(curve._states - states)) <= 1e-13
    metric = PseudoMetric(6)
    assert curve.max_gram_defect == pytest.approx(
        float(np.max(_gram_defect(states, metric))), rel=1e-6)


# integrate-shaped curvatures: the n = 8 profile, cut short or extended
SCAN_PROFILE = SYNTH_PROFILES[8] + ["0.6 + 0.1*cos(t)", "1.4 - 0.2*t"]


def sequential_table(curve):
    """The synthesis table as one propagator product per step builds it,
    from the curve's own nodes and RK4 propagators."""
    ts = curve._ts
    hs = np.diff(ts)
    stage_t = np.empty(2 * len(hs) + 1)
    stage_t[0::2] = ts
    stage_t[1::2] = ts[:-1] + hs / 2
    A = curve._generators(curve.profile.values(stage_t))
    D = _rk4_increments(A[0:-1:2], A[1::2], A[2::2], hs)
    states = np.empty_like(curve._states)
    states[0] = curve._states[0]
    for i in range(len(hs)):
        states[i + 1] = states[i] + D[i] @ states[i]
    return states


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_scanned_table_matches_the_sequential_loop(n):
    profile = CurvatureProfile.from_strings(n, SCAN_PROFILE[:n - 3])
    curve = synthesize(profile, (0.0, 1.0), step=1e-3)
    want = sequential_table(curve)
    assert np.max(np.abs(curve._states - want)) <= 1e-13 * np.max(np.abs(want))


# the benchmark's synthesis profiles: n = 8 on [0, 1] at step 1e-3, and the
# n = 6 evolute base on [-0.7, 1.2] at the default step
@pytest.mark.parametrize("n, curvatures, interval, step", [
    (8, ["0.1 + 0.05*t", "-0.2", "1.5 + 0.3*sin(t)", "1 + 0.2*t", "2 - 0.3*t"],
     (0.0, 1.0), 1e-3),
    (6, ["0.1", "-0.05", "1/(1 + t)"], (-0.7, 1.2), constructions.DEFAULT_STEP),
])
def test_the_gram_gate_reads_one_expected_gram(n, curvatures, interval, step):
    expected = _expected_frame_gram(n)
    assert _expected_frame_gram(n) is expected and not expected.flags.writeable

    def fresh():
        return PseudoMetric(n).gram(standard_initial_frame(n).rows[1:])

    assert np.array_equal(expected, fresh())
    curve = synthesize(CurvatureProfile.from_strings(n, curvatures), interval, step=step)
    # the gate's maximum over the table's blocks, against a Gram built afresh
    # for every block, is the one synthesis recorded, to the last bit
    states, metric = curve._states, PseudoMetric(n)
    worst = 0.0
    for i0 in range(0, len(states) - 1, TABLE_BLOCK):
        G = metric.gram(states[i0:i0 + TABLE_BLOCK + 1, 1:])
        worst = max(worst, float(np.max(np.abs(G - fresh()))))
    assert curve.max_gram_defect == worst > 0.0


# The synthesis kernels written out as plain expressions: an einsum for the
# generators, RK4 as one formula, and the scan over chunk-major increments
# padded with zeros.  The kernels run as GEMMs and in-place updates in the
# same operation order, so they must match these bit for bit.

def einsum_generators(k, P):
    ones = np.ones(k.shape[:-1] + (1,))
    return np.einsum("...c,cij->...ij", np.concatenate((ones, k), axis=-1), P)


def expression_rk4_increments(A0, Am, A1, h):
    h = np.asarray(h)[..., None, None]
    q2 = Am + h / 2 * (Am @ A0)
    q3 = Am + h / 2 * (Am @ q2)
    q4 = A1 + h * (A1 @ q3)
    return h / 6 * (A0 + 2 * q2 + 2 * q3 + q4)


def chunk_major_propagate(S0, D):
    m, r = D.shape[:2]
    width = min(constructions.SCAN_CHUNK, m)
    chunks = -(-m // width)
    E = np.zeros((chunks * width, r, r))
    E[:m] = D
    E = E.reshape(chunks, width, r, r)
    for j in range(1, width):
        E[:, j] += E[:, j - 1] + E[:, j] @ E[:, j - 1]
    starts = np.empty((chunks, 1) + S0.shape)
    starts[0, 0] = S0
    for c in range(chunks - 1):
        starts[c + 1, 0] = starts[c, 0] + E[c, -1] @ starts[c, 0]
    return (starts + E @ starts).reshape((-1,) + S0.shape)[:m]


def expression_table(curve):
    """The table and its largest Gram defect, block by block, from the
    expression kernels."""
    n, ts = curve.dimension, curve._ts
    hs = np.diff(ts)
    P, metric, expected = _frenet_couplings(n), PseudoMetric(n), _expected_frame_gram(n)
    states = np.empty_like(curve._states)
    states[0] = standard_initial_frame(n).rows
    worst = 0.0
    for i0 in range(0, len(hs), TABLE_BLOCK):
        i1 = min(i0 + TABLE_BLOCK, len(hs))
        stage_t = np.empty(2 * (i1 - i0) + 1)
        stage_t[0::2] = ts[i0:i1 + 1]
        stage_t[1::2] = ts[i0:i1] + hs[i0:i1] / 2
        A = einsum_generators(curve.profile.values(stage_t), P)
        D = expression_rk4_increments(A[0:-1:2], A[1::2], A[2::2], hs[i0:i1])
        states[i0 + 1:i1 + 1] = chunk_major_propagate(states[i0], D)
        G = metric.gram(states[i0:i1 + 1, 1:])
        worst = max(worst, float(np.max(np.abs(G - expected))))
    return states, worst


SCAN_EDGES = [1, 15, 16, 17, 255, 256, 257, 513]
# the benchmark's two synthesis profiles, then the scan-edge profile of
# test_synthesis_matches_the_oracle_at_scan_edges at each edge step count
BIT_PROFILES = [
    (8, ["0.1 + 0.05*t", "-0.2", "1.5 + 0.3*sin(t)", "1 + 0.2*t", "2 - 0.3*t"],
     (0.0, 1.0), 1e-3),
    (6, ["0.1", "-0.05", "1/(1 + t)"], (-0.7, 1.2), constructions.DEFAULT_STEP),
] + [(6, ["1.5", "-1", "2 + sin(t)"], (-0.2, -0.2 + (steps - 0.63) * 0.01), 0.01)
     for steps in SCAN_EDGES]


@pytest.mark.parametrize("n, curvatures, interval, step", BIT_PROFILES)
def test_table_is_bit_identical_to_the_expression_kernels(n, curvatures, interval, step):
    curve = synthesize(CurvatureProfile.from_strings(n, curvatures), interval, step=step)
    states, worst = expression_table(curve)
    assert np.array_equal(curve._states, states)
    assert curve.max_gram_defect == worst
    # off-node states and jets: one RK4 step from the node below
    P = _frenet_couplings(n)
    grid = interval[0] + (interval[1] - interval[0]) * np.linspace(0.013, 0.987, 23)
    i = np.searchsorted(curve._ts, grid, side="right") - 1
    t0, h = curve._ts[i], grid - curve._ts[i]
    stage = np.stack((t0, t0 + h / 2, t0 + h))
    k = curve.profile.values(stage.ravel()).reshape(stage.shape + (-1,))
    D = expression_rk4_increments(*einsum_generators(k, P), h)
    want = states[i] + D @ states[i]
    assert np.array_equal(curve._states_at(grid), want)
    assert np.array_equal(curve.vec_jets(grid, 1).coeffs, want[:, :2].swapaxes(0, 1))


@pytest.mark.parametrize("n", [5, 8, 11])
def test_generators_are_the_einsum_bit_for_bit(n):
    curve = synthesize(CurvatureProfile.from_strings(n, ["0.3"] * (n - 3)), (0.0, 0.1),
                       step=0.05)
    rng = np.random.default_rng(n)
    P = _frenet_couplings(n)
    for shape in [(n - 3,), (37, n - 3), (3, 11, n - 3)]:
        k = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        assert np.array_equal(curve._generators(k), einsum_generators(k, P))


@pytest.mark.parametrize("r", [6, 9, 13])
def test_rk4_increments_are_the_expression_bit_for_bit(r):
    rng = np.random.default_rng(r)
    A0, Am, A1 = rng.normal(size=(3, 41, r, r))
    for h in (0.013, rng.uniform(1e-4, 0.1, size=41)):
        assert np.array_equal(_rk4_increments(A0, Am, A1, h),
                              expression_rk4_increments(A0, Am, A1, h))
    # a stack of stacks, as the table's (positions, chunks) slab has
    h = rng.uniform(1e-4, 0.1, size=(16, 3))
    stacks = rng.normal(size=(3, 16, 3, r, r))
    assert np.array_equal(_rk4_increments(*stacks, h), expression_rk4_increments(*stacks, h))


def test_off_node_rk4_step_is_the_expression_bit_for_bit():
    n = 8
    curve = synthesize(CurvatureProfile.from_strings(n, BIT_PROFILES[0][1]), (0.0, 1.0),
                       step=1e-3)
    P = _frenet_couplings(n)
    rng = np.random.default_rng(8)
    i = rng.integers(0, len(curve._ts) - 1, size=29)
    t, state, h = curve._ts[i], curve._states[i], rng.uniform(0.0, 1e-3, size=29)
    for args in [(t, state, h), (float(t[0]), state[0], float(h[0]))]:
        t0, s0, h0 = args
        stage = np.stack(np.broadcast_arrays(t0, t0 + h0 / 2, t0 + h0))
        k = curve.profile.values(stage.ravel()).reshape(stage.shape + (-1,))
        D = expression_rk4_increments(*einsum_generators(k, P), h0)
        assert np.array_equal(curve._rk4_step(*args), s0 + D @ s0)


@pytest.mark.parametrize("steps", SCAN_EDGES)
def test_scan_is_the_chunk_major_scan_bit_for_bit(steps):
    rng = np.random.default_rng(steps)
    r, n = 9, 8
    D = rng.normal(scale=1e-2, size=(steps, r, r))
    S0 = rng.normal(size=(r, n))
    width = min(constructions.SCAN_CHUNK, steps)
    chunks = -(-steps // width)
    E = np.zeros((chunks * width, r, r))
    E[:steps] = D
    E = np.ascontiguousarray(E.reshape(chunks, width, r, r).swapaxes(0, 1))
    out = np.empty((chunks * width, r, n))
    constructions._propagate(S0, E, out)
    assert np.array_equal(out[:steps], chunk_major_propagate(S0, D))


@pytest.mark.parametrize("n", [5, 8, 12])
def test_couplings_are_built_once_per_n_and_read_only(n):
    P, PT = _frenet_couplings(n), _frenet_couplings(n, transposed=True)
    assert _frenet_couplings(n) is P and not P.flags.writeable
    assert _frenet_couplings(n, transposed=True) is PT and not PT.flags.writeable
    assert np.array_equal(PT, P.swapaxes(1, 2))
    # at most one coupling per generator entry: the GEMM sums are exact
    assert np.max(np.count_nonzero(P, axis=0)) == 1


@pytest.mark.parametrize("a, b, step", [(-0.7, 1.2, 1e-3), (0.0, 16.5000000000001, 0.05)])
def test_node_times_do_not_drift(a, b, step):
    # node i sits at a + i*step, the last node is b itself and no step is
    # empty, also when b is a hair past a multiple of the step
    curve = synthesize(CurvatureProfile.from_strings(5, ["0", "0"]), (a, b), step=step,
                       defect_limit=1e6)
    ts = curve._ts
    assert ts[-1] == b
    assert np.all(np.diff(ts) > 0)
    assert all(ts[i] == a + i * step for i in range(len(ts) - 1))


@pytest.mark.parametrize("interval, step", [
    ((0.0, 1.0), float("nan")), ((0.0, 1.0), float("inf")), ((0.0, 1.0), 1e-320),
    ((0.0, float("inf")), 0.01), ((float("nan"), 1.0), 0.01), ((1e6, 1e6 + 1.0), 1e-12),
])
def test_unusable_step_or_interval_is_an_input_error(interval, step):
    with pytest.raises(InputError):
        synthesize(CurvatureProfile.from_strings(5, ["0", "0"]), interval, step=step)


def test_oversized_state_table_is_refused_before_it_is_built(monkeypatch):
    import nullcartan.constructions as constructions

    profile = CurvatureProfile.from_strings(6, ["0.1", "0.05", "0.5"])
    with pytest.raises(InputError, match="needs 1000000000000001 nodes"):
        synthesize(profile, (0.0, 1.0), step=1e-15)
    # the limit counts nodes * (n + 1) * n floats: 5 nodes of 7 x 6 here
    monkeypatch.setattr(constructions, "MAX_TABLE_FLOATS", 5 * 7 * 6)
    assert len(synthesize(profile, (0.0, 1.0), step=0.25, defect_limit=1.0)._ts) == 5
    monkeypatch.setattr(constructions, "MAX_TABLE_FLOATS", 5 * 7 * 6 - 1)
    with pytest.raises(InputError, match="needs 5 nodes"):
        synthesize(profile, (0.0, 1.0), step=0.25, defect_limit=1.0)


# curvature profiles for the jet oracles, k_1..k_{n-3} read off the front
VARYING_CURVATURES = ["0.4 + 0.2*sin(t)", "-0.3 + 0.1*t^2", "1/(1 + t)",
                      "0.8 + 0.3*cos(2*t)", "exp(-t)", "0.5 - 0.2*t", "1.2 + 0.1*t^3"]
CONSTANT_CURVATURES = ["0.4", "-0.3", "0.9", "0.8", "-0.6", "0.5", "1.1"]


def max_relative_error_per_order(got, want):
    """max over orders j of max|got_j - want_j| / max|want_j|."""
    scale = np.max(np.abs(want), axis=(1, 2))
    return float(np.max(np.max(np.abs(got - want), axis=(1, 2)) / scale))


def frame_basis_jets(curve, ts, order):
    """Taylor coefficients of alpha through the frame basis, the oracle for
    the state recurrence: alpha^(p) = sum_r X_p[r] F_r over the frame rows
    F = (L1, L2, N1, N2, W3, ...), with X_1 = e_L1 and X_{p+1} = X_p' + X_p C,
    where C = sum_c k_c C_c is the frame block of the couplings.  X_p is a
    Taylor series in t that loses one order per derivative."""
    states = curve._states_at(ts)
    C = _frenet_couplings(curve.dimension)[:, 1:, 1:]
    depth = max(order - 1, 0)
    ones = np.zeros((depth + 1, len(ts)))
    ones[0] = 1.0
    k = np.stack([ones] + [j.coeffs for j in curve.profile.jets(ts, depth)])
    X = np.zeros((depth + 1, len(ts), curve.dimension))
    X[0, :, 0] = 1.0
    coeffs = [states[:, 0]]
    for p in range(1, order + 1):
        coeffs.append(np.einsum("mr,mrd->md", X[0], states[:, 1:]) / math.factorial(p))
        size = len(X) - 1
        derivative = X[1:] * np.arange(1, size + 1)[:, None, None]
        for c in range(len(C)):
            XC = X[:size] @ C[c]
            for i in range(size):  # Cauchy product with the series of k_c
                derivative[i] += np.einsum("jm,jmr->mr", k[c, i::-1], XC[:i + 1])
        X = derivative
    return np.stack(coeffs)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_jets_with_constant_curvatures_are_matrix_powers(n):
    # A is constant, so the state's coefficients are S_j = A^j S_0 / j!
    profile = CurvatureProfile.from_strings(n, CONSTANT_CURVATURES[:n - 3])
    curve = synthesize(profile, (0.0, 1.0), step=0.01)
    A = np.einsum("c,cij->ij", np.concatenate(([1.0], profile.values(0.0))),
                  _frenet_couplings(n))
    nodes = curve._ts[::9]
    for ts in (nodes, nodes[:-1] + 0.0037):
        order = 2 * n + 2
        S = curve._states_at(ts)
        want = [S[:, 0]]
        for j in range(1, order + 1):
            S = A @ S / j
            want.append(S[:, 0])
        got = curve.vec_jets(ts, order).coeffs
        assert max_relative_error_per_order(got, np.stack(want)) <= 1e-13


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_jets_match_the_frame_basis_recursion(n):
    profile = CurvatureProfile.from_strings(n, VARYING_CURVATURES[:n - 3])
    curve = synthesize(profile, (0.0, 1.0), step=0.01)
    for ts in (np.array([0.37]), np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 256)):
        for order in (0, 1, 2, 2 * n + 2):
            got = curve.vec_jets(ts, order).coeffs
            want = frame_basis_jets(curve, ts, order)
            assert max_relative_error_per_order(got, want) <= 1e-13, (len(ts), order)


def test_standard_initial_frame_relations():
    # every pairing by row name: <L1, N1> = 1, <L2, N2> = -1, unit W's and
    # every other pair 0; the Gram gate expects the same table
    m = PseudoMetric(7)
    st = standard_initial_frame(7)
    names = ["L1", "L2", "W3", "N2", "N1", "W4", "W5"]
    pairs = {("L1", "N1"): 1.0, ("L2", "N2"): -1.0, ("W3", "W3"): 1.0, ("W4", "W4"): 1.0,
             ("W5", "W5"): 1.0}
    want = [[pairs.get((a, b), pairs.get((b, a), 0.0)) for b in names] for a in names]
    assert np.array_equal(m.gram(st.rows[1:]), want)
    named = (st.alpha, st.L1, st.L2, st.W[0], st.N2, st.N1, st.W[1], st.W[2])
    assert all(np.array_equal(v, row) for v, row in zip(named, st.rows, strict=True))
    assert _gram_defect(st.rows, m) == 0.0


def test_random_frame_synthesis_classifies(synth6):
    rng = np.random.default_rng(123)
    initial = random_isometry_frame(6, rng)
    profile = CurvatureProfile.from_strings(6, ["0.2", "-0.1", "1 + t"])
    curve = synthesize(profile, (0.0, 1.0), initial=initial)
    rep = classify(curve, grid=np.linspace(0.05, 0.95, 5))
    assert rep.family
    f = cartan_frame_at(curve, 0.5)
    assert np.max(np.abs(np.array(f.curvatures) - [0.2, -0.1, 1.5])) <= 1e-6


def test_sphere_hypothesis_distinct_from_negative_verdict():
    # a tiny but frameable k3 fails the theorem hypothesis, which is reported
    # as HypothesisError rather than a False verdict
    profile = CurvatureProfile.from_strings(6, ["0.1", "0.05", "0.000000001"])
    curve = synthesize(profile, (0.0, 1.0))
    with pytest.raises(HypothesisError) as exc:
        pseudo_spherical_test(curve, np.linspace(0.1, 0.9, 5))
    assert "k_3" in str(exc.value.condition)


def test_sphere_coefficients_dimension_gate():
    profile = CurvatureProfile.from_strings(5, ["0", "0"])
    with pytest.raises(HypothesisError):
        sphere_coefficients(profile, 0.5)
